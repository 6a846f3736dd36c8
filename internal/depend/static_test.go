package depend_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/lang"
	"repro/internal/loopir"
	"repro/internal/loopir/looptest"
)

// staticDiffers lists, per program, where the compiler's static decisions
// differ from the trace's, and why. Every difference must make the static
// answer more conservative (an extra pipeline, an inner exchange carrier,
// an exchange the trace saw no flow for) or be a Table 1 row read from the
// plan instead of from the trace; TestStaticEqualsTrace fails on one that is
// not listed here, and on one listed here that no longer occurs.
var staticDiffers = map[string][]struct{ diff, why string }{
	"corpus/broadcast-slice-past-samples": {
		{"table 1 communication outside loop: static yes, trace no", "the plan broadcasts a[k] and a[0] before the distributed loops; what the loops read of them (the diagonal, row 0) is never written, so the trace pairs no owner-crossing flow with the broadcasts"},
	},
	"corpus/empty-distributed-loop": {
		{"table 1 communication outside loop: static yes, trace no", "the plan broadcasts x[0] before loop i, which runs no iteration, so the trace sees no access to pair"},
	},
	"corpus/flow-past-samples-j10": {
		{"exchange b@+1: static iter, trace none", "the j loop starts at 10, so neither sample (n = 9, 6) runs it and the trace sees no flow into b[(j + 1)][i]; the old compiler refused the program"},
		{"pipeline b@-1: static only", "the same: no sample runs the j loop, so the trace sees no flow carried by j into b[(j - 1)][i]"},
		{"table 1 communication outside loop: static yes, trace no", "the same: the plan exchanges b each sweep"},
		{"table 1 loop-carried dependences: static yes, trace no", "the same: the j loop reads b, which it writes, at offsets -1 and +1"},
	},
	"corpus/flow-past-samples-n-9": {
		{"exchange b@+1: static iter, trace none", "the j loop ends at n - 9, so neither sample (n = 9, 6) runs it and the trace sees no flow into b[(j + 1)][i]; the old compiler refused the program"},
		{"pipeline b@-1: static only", "the same: no sample runs the j loop"},
		{"table 1 communication outside loop: static yes, trace no", "the same: the plan exchanges b each sweep"},
		{"table 1 loop-carried dependences: static yes, trace no", "the same: the j loop reads b, which it writes, at offsets -1 and +1"},
	},
	"corpus/pipeline-only-sweep": {
		{"table 1 communication outside loop: static no, trace yes", "the plan has no exchange and no broadcast: the trace's yes is an anti dependence carried by iter, from a read of b[(j - 1)][i] to the next sweep's write, which no transfer serves (the pipeline orders it)"},
	},
	"corpus/two-pipelines-one-strip": {
		{"table 1 communication outside loop: static no, trace yes", "as in pipeline-only-sweep: both loops are pipelined, and the trace's yes is the anti dependence from each pipelined read to the next sweep's write"},
	},
	"corpus/reduction-past-replicated-loop": {
		{"table 1 communication outside loop: static no, trace yes", "the trace's yes is r[0]'s accumulation from one iteration of A to the next, across owners; the Combine step serves it, and the plan has no exchange or broadcast"},
	},
}

// TestStaticEqualsTrace compiles every library program, every
// FuzzCompileRun corpus entry (under the directive the fuzz harness gives
// it) and every refusal-table case that compiles, and holds the compiler's
// static decisions against what the concrete tracer observes under the
// plan's directive: which offset reads are pipelined, each exchange's
// carrier loop, Plan.Restricted and the Table 1 row. A program the trace
// faults on (an index out of range at a sample size) is one the trace
// observed nothing of; it is skipped.
func TestStaticEqualsTrace(t *testing.T) {
	progs, specs := staticCases(t)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	compared := 0
	for _, name := range names {
		plan, err := compile.Compile(progs[name], compile.Options{Dist: specs[name]})
		if err != nil {
			continue
		}
		a, err := depend.Analyze(plan.Prog)
		if err != nil {
			t.Fatal(err)
		}
		deps, err := a.DepsFor(plan.Dist)
		if err != nil {
			continue
		}
		props, err := a.PropertiesFor(plan.Dist)
		if err != nil {
			t.Fatal(err)
		}
		compared++
		got, err := staticAgainstTrace(a, plan, deps, props)
		if err != nil {
			t.Errorf("%s: %v\n%s", name, err, plan.Source)
			continue
		}
		var want []string
		for _, d := range staticDiffers[name] {
			want = append(want, d.diff)
		}
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: static differs from the trace in\n  %s\nlisted\n  %s\n%s", name, strings.Join(got, "\n  "), strings.Join(want, "\n  "), plan.Source)
		}
	}
	for name := range staticDiffers {
		if progs[name] == nil {
			t.Errorf("listed case %s is gone", name)
		}
	}
	if compared < 50 {
		t.Errorf("compared %d programs, want every library program, corpus entry and compiling refusal case", compared)
	}
}

// staticAgainstTrace lists where plan's decisions differ from the trace's
// under plan.Dist, and fails when one is less conservative than the trace.
func staticAgainstTrace(a *depend.Analysis, plan *compile.Plan, deps []depend.Dep, props depend.Properties) ([]string, error) {
	dist := plan.Dist
	depth := map[string]int{}
	loopir.Walk(plan.Prog.Body, func(s loopir.Stmt, loops []*loopir.Loop) error {
		if l, ok := s.(*loopir.Loop); ok {
			depth[l.Var] = len(loops)
		}
		return nil
	})

	// The trace's decisions, read per offset read of a distributed loop as
	// the compiler once read them: piped when a flow carried by the loop
	// feeds the read, else an exchange of the loop's array and offset at
	// the innermost other carrier of every such read ("": none observed).
	type part struct {
		array string
		delta int
	}
	tracePipes, traceExchanges := map[part]bool{}, map[part][]string{}
	type need struct {
		loop *loopir.Loop
		part
	}
	exchanged := map[need]string{}
	for _, rc := range a.Refs {
		dim, distributed := dist.Dims[rc.Ref.Array]
		k := slices.IndexFunc(rc.Loops, func(l *loopir.Loop) bool { return slices.Contains(dist.Loops, l.Var) })
		if rc.Write || !distributed || k < 0 {
			continue
		}
		v := rc.Loops[k].Var
		f, err := loopir.AffineOf(rc.Ref.Idx[dim], nil)
		delta, ok := f.Offset(v)
		if err != nil || !ok || delta == 0 {
			continue
		}
		p := part{rc.Ref.Array, delta}
		carrier, piped := "", false
		for _, d := range deps {
			if d.Kind != depend.Flow || d.DstStmt != rc.StmtID || d.Dst.String() != rc.Ref.String() {
				continue
			}
			if d.Carrier == v {
				piped = true
			} else if d.Carrier != "" && !slices.Contains(dist.Loops, d.Carrier) && (carrier == "" || depth[d.Carrier] > depth[carrier]) {
				carrier = d.Carrier
			}
		}
		key := need{rc.Loops[k], p}
		switch prev, seen := exchanged[key]; {
		case piped:
			tracePipes[p] = true
		case !seen || prev == "" || carrier != "" && depth[carrier] > depth[prev]:
			exchanged[key] = carrier
		}
	}
	for key, carrier := range exchanged {
		traceExchanges[key.part] = append(traceExchanges[key.part], carrier)
	}

	// The plan's decisions.
	staticPipes, staticExchanges := map[part]bool{}, map[part][]string{}
	compile.WalkSteps(plan.Steps, func(s compile.Step, _ []compile.Step) error {
		switch s := s.(type) {
		case *compile.StripLoop:
			for _, st := range s.Pre {
				pr := st.(*compile.PipeRecv)
				staticPipes[part{pr.Array, pr.Delta}] = true
			}
		case *compile.SeqLoop:
			for _, st := range s.Body {
				if ex, ok := st.(*compile.Exchange); ok {
					for _, gp := range ex.Parts {
						p := part{gp.Array, gp.Delta}
						staticExchanges[p] = append(staticExchanges[p], s.Var)
					}
				}
			}
		}
		return nil
	})

	var diffs []string
	for p := range staticPipes {
		if !tracePipes[p] {
			diffs = append(diffs, fmt.Sprintf("pipeline %s@%+d: static only", p.array, p.delta))
		}
	}
	for p := range tracePipes {
		if !staticPipes[p] {
			return nil, fmt.Errorf("the trace pipelines %s@%+d and the plan does not", p.array, p.delta)
		}
	}
	for p, carriers := range traceExchanges {
		static := staticExchanges[p]
		if len(static) == 0 && staticPipes[p] {
			continue // an extra pipeline, listed above
		}
		sort.Strings(static)
		sort.Strings(carriers)
		if slices.Equal(static, carriers) {
			continue
		}
		for _, ct := range carriers {
			if ct != "" && !staticPipes[p] && !slices.ContainsFunc(static, func(cs string) bool { return depth[cs] >= depth[ct] }) {
				return nil, fmt.Errorf("the trace exchanges %s@%+d at %s and the plan at %v, outer or nowhere", p.array, p.delta, ct, static)
			}
		}
		trace := strings.Join(carriers, ",")
		if trace == "" {
			trace = "none"
		}
		diffs = append(diffs, fmt.Sprintf("exchange %s@%+d: static %s, trace %s", p.array, p.delta, strings.Join(static, ","), trace))
	}
	for p, static := range staticExchanges {
		if _, seen := traceExchanges[p]; !seen {
			diffs = append(diffs, fmt.Sprintf("exchange %s@%+d: static %s, trace pipelined", p.array, p.delta, strings.Join(static, ",")))
		}
	}

	// Restricted and Table 1 as the compiler once read them off the trace:
	// a reduction's accumulation is resolved by Combine steps, not carried.
	carried := false
	for _, d := range deps {
		reduction := slices.ContainsFunc(plan.Reductions, func(r compile.ReduceSpec) bool { return r.Array == d.Array })
		carried = carried || !reduction && slices.Contains(dist.Loops, d.Carrier)
	}
	props.LoopCarriedDeps = carried
	if restricted := carried || len(plan.GhostDeltas) > 0; restricted != plan.Restricted {
		if restricted {
			return nil, fmt.Errorf("the trace restricts movement and the plan does not")
		}
		diffs = append(diffs, "restricted: static yes, trace no")
	}
	for i, name := range depend.PropertyNames {
		if s, tr := plan.Props.Row()[i], props.Row()[i]; s != tr {
			diffs = append(diffs, fmt.Sprintf("table 1 %s: static %s, trace %s", name, s, tr))
		}
	}
	sort.Strings(diffs)
	return diffs, nil
}

// staticCases gathers the programs TestStaticEqualsTrace compares, by name,
// with the directive each compiles under (none: the derived one).
func staticCases(t *testing.T) (map[string]*loopir.Program, map[string]depend.DistSpec) {
	progs, specs := map[string]*loopir.Program{}, map[string]depend.DistSpec{}
	for name, p := range loopir.Library() {
		progs["library/"+name] = p
	}
	refusals, err := looptest.Refusals("../compile/testdata/refusals.txt")
	if err != nil {
		t.Fatal(err)
	}
	caseDist := map[string]depend.DistSpec{} // by formatted text
	for _, c := range refusals {
		p, err := lang.Parse(c.Src)
		if err != nil {
			continue
		}
		spec := depend.DistSpec{}
		if c.Dist != "" {
			if spec, err = depend.ParseDist(c.Dist); err != nil {
				t.Fatal(err)
			}
		}
		progs["refusal/"+c.Name], specs["refusal/"+c.Name] = p, spec
		caseDist[lang.Format(p)] = spec
	}

	// The corpus entries, each under the directive FuzzCompileRun gives it:
	// derived, a random array:dim set drawn from its seed, or the refusal
	// case's with the same text (a library text's directive is the derived
	// one).
	dir := "../dlb/testdata/fuzz/FuzzCompileRun"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		arg := func(i int, typ string) string {
			return strings.TrimSuffix(strings.TrimPrefix(lines[i], typ+"("), ")")
		}
		src, err1 := strconv.Unquote(arg(1, "string"))
		seed, err2 := strconv.ParseInt(arg(2, "int64"), 10, 64)
		dirByte, err3 := strconv.Unquote(arg(3, "byte"))
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		r := rand.New(rand.NewSource(seed))
		var p *loopir.Program
		if src == "" {
			p = looptest.Program(r, seed&1 != 0, seed&2 != 0)
			r.Intn(6) // the harness draws n
		} else if p, err = lang.Parse(src); err != nil {
			continue
		}
		var spec depend.DistSpec
		switch dirByte[0] % 3 {
		case 1:
			spec.Dims = map[string]int{}
			for _, a := range p.Arrays {
				if r.Intn(2) == 0 {
					spec.Dims[a.Name] = r.Intn(len(a.Dims))
				}
			}
		case 2:
			spec = caseDist[lang.Format(p)]
		}
		progs["corpus/"+e.Name()], specs["corpus/"+e.Name()] = p, spec
	}
	return progs, specs
}
