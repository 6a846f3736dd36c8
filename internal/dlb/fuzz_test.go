package dlb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/lang"
	"repro/internal/loopir"
	"repro/internal/loopir/looptest"
	"repro/internal/vtime"
)

// fuzzVirtualBound is the virtual time past which a fuzzed run has hung:
// the programs are small, and a run takes at most a few virtual seconds.
const fuzzVirtualBound = time.Minute

// FuzzCompileRun is the compiler's differential from source text to the
// gathered arrays. The program is src parsed, or, when src is empty,
// looptest.Program drawn from seed. Its text must reformat byte-exact; it
// compiles under dir's directive — derived, a random array:dim set, or the
// one a library program (TestDerivedDirectives) or a refusal case names —
// and Compile or Instantiate refuses it with an error of the compiler's
// refusal table (refusalPattern), or the plan runs on 2–4 simulated slaves,
// slave 0 under a constant competing load so that work moves. The run must
// end within fuzzVirtualBound and gather Interpret's arrays bit for bit
// (reduction arrays to 1e-9 relative: partial sums reassociate, and a
// mutated program's sums pass 1e7, as in corpus entry reduction-large-sum),
// or fail exactly where Interpret fails. A library program's text runs on
// the VM or, with tier odd, native (the VM alone under -short or with no go
// toolchain); every other program runs on the VM, where FuzzKernel and
// TestQuickNativeUnsafe already hold it to the native tier.
func FuzzCompileRun(f *testing.F) {
	// row is the directive and, for an Instantiate refusal, the params a
	// library program or refusal case is given, by its formatted text.
	type row struct {
		spec   depend.DistSpec
		params map[string]int
	}
	rows := map[string]row{}
	library := map[string]bool{}
	for name, p := range loopir.Library() {
		text := lang.Format(p)
		rows[text], library[text] = row{spec: derivedWant[name]}, true
	}
	cases, err := looptest.Refusals("../compile/testdata/refusals.txt")
	if err != nil {
		f.Fatal(err)
	}
	var compileRefusals, instantiateRefusals []*regexp.Regexp
	for _, c := range cases {
		if c.Params == nil {
			compileRefusals = append(compileRefusals, refusalPattern(c))
		} else {
			instantiateRefusals = append(instantiateRefusals, refusalPattern(c))
		}
		var spec depend.DistSpec // no dist line: the derived directive
		if c.Dist != "" {
			if spec, err = depend.ParseDist(c.Dist); err != nil {
				f.Fatal(err)
			}
		}
		if p, err := lang.Parse(c.Src); err == nil {
			rows[lang.Format(p)] = row{spec, c.Params}
		}
		f.Add(c.Src, int64(0), byte(2), byte(0), byte(0))
	}
	_, goErr := exec.LookPath("go")
	f.Fuzz(func(t *testing.T, src string, seed int64, dir, slaves, tier byte) {
		r := rand.New(rand.NewSource(seed))
		kernel := KernelVM
		var prog *loopir.Program
		var params map[string]int
		if src == "" {
			prog = looptest.Program(r, seed&1 != 0, seed&2 != 0)
			params = map[string]int{"n": 5 + r.Intn(6)}
		} else {
			p, err := lang.Parse(src)
			if err != nil {
				return
			}
			prog, params = p, libraryParams(p)
		}
		text := lang.Format(prog)
		if row := rows[text]; row.params != nil {
			params = row.params
		}
		if library[text] && tier%2 == 1 && !testing.Short() && goErr == nil {
			kernel = KernelAOT
		}
		if again, err := lang.Parse(text); err != nil || lang.Format(again) != text {
			t.Fatalf("formatted text does not reparse to itself (%v):\n%s", err, text)
		}
		if !small(prog, params) {
			return
		}
		ref, err := loopir.NewInstance(prog, params)
		if err != nil {
			return
		}

		var spec depend.DistSpec
		switch dir % 3 {
		case 1:
			spec.Dims = map[string]int{}
			for _, a := range prog.Arrays {
				if r.Intn(2) == 0 {
					spec.Dims[a.Name] = r.Intn(len(a.Dims))
				}
			}
		case 2:
			spec = rows[text].spec
		}
		plan, err := compile.Compile(prog, compile.Options{Dist: spec})
		if err != nil {
			if !refused(err, compileRefusals) {
				t.Fatalf("Compile under %v: %v", spec, err)
			}
			return
		}

		want := ref.Interpret()
		res, err := run(Config{Plan: plan, Params: params, DLB: true, Kernel: kernel}, cluster.Config{
			Slaves: 2 + int(slaves%3),
			Load:   []cluster.LoadProfile{cluster.Constant(1)},
		}, fuzzVirtualBound)
		switch {
		case errors.Is(err, vtime.ErrLimit):
			t.Fatalf("the run under %v passed %v virtual\n%s", plan.Dist, fuzzVirtualBound, plan.Source)
		case err != nil && refused(err, instantiateRefusals):
			return
		case want != nil && err == nil:
			t.Fatalf("Interpret fails (%v), the run under %v gathers", want, plan.Dist)
		case want == nil && err != nil:
			t.Fatalf("the run under %v fails: %v\n%s", plan.Dist, err, plan.Source)
		case want != nil:
			return
		}
		if err := sameGather(plan, ref, res.Final, true); err != nil {
			t.Fatalf("under %v on %s: %v\n%s", plan.Dist, kernel, err, plan.Source)
		}
	})
}

// refusalToken splits an error into quoted names, words, runs of space and
// single other characters.
var refusalToken = regexp.MustCompile(`"[^"]*"|\w+|\s+|.`)

// refusalPattern matches c.Want as a whole message with its operands
// varied: each run of quoted names, numbers, identifiers of c's program and
// the brackets, operators and signs between them (an expression, a
// subscripted reference, a params map) matches any text. A hyphen between
// two words and a colon before a space are prose.
func refusalPattern(c looptest.Refusal) *regexp.Regexp {
	idents := map[string]bool{}
	for _, id := range regexp.MustCompile(`[A-Za-z_]\w*`).FindAllString(c.Src, -1) {
		idents[id] = true
	}
	toks := refusalToken.FindAllString(c.Want, -1)
	wordRE := regexp.MustCompile(`^\w`)
	word := func(i int) bool { return i >= 0 && i < len(toks) && wordRE.MatchString(toks[i]) }
	space := func(i int) bool { return i >= len(toks) || strings.TrimSpace(toks[i]) == "" }
	op := make([]bool, len(toks))
	for i, tok := range toks {
		op[i] = tok[0] == '"' || idents[tok] || strings.Trim(tok, "0123456789") == "" ||
			strings.Contains("[](){}+*/", tok) || tok == ":" && !space(i+1) ||
			tok == "-" && !(word(i-1) && word(i+1))
	}
	var b strings.Builder
	b.WriteString("^")
	for i := 0; i < len(toks); i++ {
		if !op[i] {
			b.WriteString(regexp.QuoteMeta(toks[i]))
			continue
		}
		for i+1 < len(toks) && (op[i+1] || space(i+1) && i+2 < len(toks) && op[i+2]) {
			i++
		}
		b.WriteString(".+")
	}
	b.WriteString("$")
	return regexp.MustCompile(b.String())
}

// refused reports whether err is one of the refusals, or the error
// Compile gives when no derived directive compiles, naming one of them.
func refused(err error, refusals []*regexp.Regexp) bool {
	msg := err.Error()
	if inner, ok := strings.CutPrefix(msg, compile.ErrNoDistribution.Error()+" ("); ok {
		inner = strings.TrimSuffix(inner, ")")
		if inner == "no loop scans a dimension of a written array" {
			return true
		}
		_, msg, _ = strings.Cut(inner, ": ")
	}
	for _, re := range refusals {
		if re.MatchString(msg) {
			return true
		}
	}
	return false
}

// small reports whether a program is cheap enough to fuzz at params, before
// any array is allocated: 64 Ki elements and a million flops at most.
func small(p *loopir.Program, params map[string]int) bool {
	elems := 0
	for _, a := range p.Arrays {
		n := 1
		for _, d := range a.Dims {
			v, err := loopir.EvalIndex(d, params)
			if n *= v; err != nil || v < 0 || n > 1<<16 {
				return false
			}
		}
		if elems += n; elems > 1<<16 {
			return false
		}
	}
	return loopir.EstFlops(p.Body, params) <= 1e6
}

// sameGather compares a run's gathered arrays with the reference bit for
// bit, and reduction arrays to 1e-9, times the reference value's magnitude
// (at least 1) with relative set: the parallel run reassociates their sums,
// so the last bits may differ from the sequential order.
func sameGather(plan *compile.Plan, ref *loopir.Instance, final map[string]*loopir.Array, relative bool) error {
	reduction := map[string]bool{}
	for _, r := range plan.Reductions {
		reduction[r.Array] = true
	}
	for name, want := range ref.Arrays {
		got := final[name]
		if got == nil {
			return fmt.Errorf("array %q missing from the gather", name)
		}
		for i, w := range want.Data {
			g, tol := got.Data[i], 1e-9
			if relative {
				tol *= math.Max(1, math.Abs(w))
			}
			if math.Float64bits(w) == math.Float64bits(g) || reduction[name] && math.Abs(w-g) <= tol {
				continue
			}
			return fmt.Errorf("%s[%d]: sequential %v, gathered %v", name, i, w, g)
		}
	}
	return nil
}
