package dlb

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/loopir"
)

// TestEngineDifferentialDeterminism pins the unified engine's no-fault
// path: every library program, in both pipelined and synchronous mode,
// across 2-8 slaves, must be bit-identical to the sequential reference and
// to the other slave counts. Per-element operations execute in the same
// order regardless of partitioning, so non-reduction arrays must match to
// the last bit; reductions reassociate the sum and get a tolerance.
func TestEngineDifferentialDeterminism(t *testing.T) {
	progs := []struct {
		name   string
		params map[string]int
	}{
		{"mm", map[string]int{"n": 24}},
		{"sor", map[string]int{"n": 20, "maxiter": 4}},
		{"lu", map[string]int{"n": 20}},
		{"jacobi", map[string]int{"n": 16, "maxiter": 3}},
	}
	for _, p := range progs {
		plan := planFor(t, p.name)
		reduction := map[string]bool{}
		for _, r := range plan.Reductions {
			reduction[r.Array] = true
		}
		// Baseline for the cross-slave-count comparison: the 2-slave
		// pipelined run.
		var base map[string]*loopir.Array
		for _, sync := range []bool{false, true} {
			mode := "pipelined"
			if sync {
				mode = "synchronous"
			}
			for slaves := 2; slaves <= 8; slaves++ {
				t.Run(fmt.Sprintf("%s/%s/p%d", p.name, mode, slaves), func(t *testing.T) {
					res := runAndVerify(t, plan, p.params,
						Config{DLB: true, Synchronous: sync},
						cluster.Config{Slaves: slaves})
					if base == nil {
						base = res.Final
						return
					}
					for name, want := range base {
						got := res.Final[name]
						if got == nil {
							t.Fatalf("array %q missing", name)
						}
						d := want.MaxAbsDiff(got)
						if reduction[name] {
							if d > 1e-9 {
								t.Errorf("reduction %q differs from baseline by %g", name, d)
							}
						} else if d != 0 {
							t.Errorf("array %q differs from baseline by %g", name, d)
						}
					}
				})
			}
		}
	}
}

// TestEngineCountersSim checks the engine's telemetry counters agree with
// the Result fields the legacy loops maintained.
func TestEngineCountersSim(t *testing.T) {
	res := runAndVerify(t, planFor(t, "mm"), map[string]int{"n": 32},
		Config{DLB: true}, cluster.Config{
			Slaves: 4,
			Load:   []cluster.LoadProfile{cluster.Constant(2)},
		})
	c := res.Counters
	if c == nil {
		t.Fatal("no counters on simulated run")
	}
	if got := c.Get("rounds"); got != int64(res.Phases) {
		t.Errorf("rounds counter = %d, Phases = %d", got, res.Phases)
	}
	if got := c.Get("moves"); got != int64(res.Moves) {
		t.Errorf("moves counter = %d, Moves = %d", got, res.Moves)
	}
	if got := c.Get("units_moved"); got != int64(res.UnitsMoved) {
		t.Errorf("units_moved counter = %d, UnitsMoved = %d", got, res.UnitsMoved)
	}
	if got := c.Get("gather_msgs"); got != 4 {
		t.Errorf("gather_msgs = %d, want 4", got)
	}
	for _, name := range []string{"scatter_bytes", "instr_bytes", "status_reports"} {
		if c.Get(name) <= 0 {
			t.Errorf("counter %q not populated: %d", name, c.Get(name))
		}
	}
}

// TestEngineCountersFT checks the fault-policy counters line up with the
// Result bookkeeping after an injected crash.
func TestEngineCountersFT(t *testing.T) {
	fp := (&fault.Plan{}).CrashAt(1, 1200*time.Millisecond)
	res := runAndVerify(t, planFor(t, "mm"), map[string]int{"n": 40},
		ftConfig(fp), cluster.Config{Slaves: 4})
	c := res.Counters
	if c == nil {
		t.Fatal("no counters on fault-tolerant run")
	}
	if got := c.Get("recoveries"); got != int64(res.Recoveries) {
		t.Errorf("recoveries counter = %d, Recoveries = %d", got, res.Recoveries)
	}
	if got := c.Get("checkpoints"); got != int64(res.Checkpoints) {
		t.Errorf("checkpoints counter = %d, Checkpoints = %d", got, res.Checkpoints)
	}
	if got := c.Get("evictions"); got != int64(len(res.Evicted)) {
		t.Errorf("evictions counter = %d, Evicted = %v", got, res.Evicted)
	}
}

// TestEngineCountersReal checks the wall-clock endpoint emits the same
// counter set as the simulated one (values are timing-dependent; presence
// and the deterministic gather count are not).
func TestEngineCountersReal(t *testing.T) {
	plan := planFor(t, "mm")
	res, err := RunReal(Config{Plan: plan, Params: map[string]int{"n": 24}, DLB: true}, 2)
	if err != nil {
		t.Fatalf("RunReal: %v", err)
	}
	c := res.Counters
	if c == nil {
		t.Fatal("no counters on real run")
	}
	if got := c.Get("gather_msgs"); got != 2 {
		t.Errorf("gather_msgs = %d, want 2", got)
	}
	if c.Get("scatter_bytes") <= 0 {
		t.Errorf("scatter_bytes not populated: %d", c.Get("scatter_bytes"))
	}
}

// TestDispatchTallyIgnoresVoidedEpoch: a slave's dispatch tally counts
// only once its "done" report survives. Slave 1 crashes at two moments that
// both recover from checkpoint 2 (hook 29); at the later one slaves 0, 2
// and 3 have already reported done in epoch 0, and the recovery voids
// those reports. Either way the run's tallies cover exactly the work since
// the cut it resumed from: 400 of mm's 1600 units.
func TestDispatchTallyIgnoresVoidedEpoch(t *testing.T) {
	for _, at := range []time.Duration{4508600 * time.Microsecond, 4608600 * time.Microsecond} {
		t.Run(at.String(), func(t *testing.T) {
			fp := (&fault.Plan{}).CrashAt(1, at)
			res := runAndVerify(t, planFor(t, "mm"), map[string]int{"n": 40},
				ftConfig(fp), cluster.Config{Slaves: 4})
			if !strings.Contains(res.FaultLog.String(), "from checkpoint 2 (hook 29)") {
				t.Fatalf("scenario moved; fault log:\n%s", res.FaultLog)
			}
			c := res.Counters
			if got := c.Get("aot_units") + c.Get("kernel_units"); got != 400 {
				t.Errorf("dispatch tally = %d units, want 400 (the work since the cut)", got)
			}
		})
	}
}

// TestCounterNamesProduced: every counter name a reader looks up — the
// benchmark's observeCounters and observeFault, and the experiments'
// Counters.Get calls — is a key of Result.Counters on every kind of run,
// so a misspelled or never-written name fails here instead of reading 0.
func TestCounterNamesProduced(t *testing.T) {
	names := map[string]bool{}
	fset := token.NewFileSet()
	collect := func(path string, inspect func(n ast.Node)) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool { inspect(n); return true })
	}
	str := func(e ast.Expr) (string, bool) {
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(lit.Value)
		return s, err == nil
	}
	collect(filepath.Join("..", "..", "benchmark", "results.go"), func(n ast.Node) {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || (fn.Name.Name != "observeCounters" && fn.Name.Name != "observeFault") {
			return
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.KeyValueExpr:
				if s, ok := str(x.Key); ok {
					names[s] = true
				}
			case *ast.IndexExpr:
				if s, ok := str(x.Index); ok {
					names[s] = true
				}
			}
			return true
		})
	})
	fromBench := len(names)
	files, err := filepath.Glob(filepath.Join("..", "exp", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		collect(path, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return
			}
			get, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || get.Sel.Name != "Get" {
				return
			}
			if recv, ok := get.X.(*ast.SelectorExpr); !ok || recv.Sel.Name != "Counters" {
				return
			}
			if s, ok := str(call.Args[0]); ok {
				names[s] = true
			}
		})
	}
	if fromBench < 13 || len(names) == fromBench {
		t.Fatalf("found %d benchmark names and %d in all; the readers moved", fromBench, len(names))
	}
	var want []string
	for name := range names {
		want = append(want, name)
	}
	sort.Strings(want)

	mm := planFor(t, "mm")
	flat := runAndVerify(t, mm, map[string]int{"n": 24}, Config{DLB: true}, cluster.Config{Slaves: 3})
	wall, err := RunReal(Config{Plan: mm, Params: map[string]int{"n": 24}, DLB: true}, 2)
	if err != nil {
		t.Fatalf("RunReal: %v", err)
	}
	ft := runAndVerify(t, mm, map[string]int{"n": 40},
		ftConfig((&fault.Plan{}).CrashAt(1, 1200*time.Millisecond)), cluster.Config{Slaves: 4})
	for _, run := range []struct {
		name string
		res  *Result
	}{{"simulated", flat}, {"RunReal", wall}, {"fault-tolerant", ft}} {
		for _, name := range want {
			if _, ok := run.res.Counters[name]; !ok {
				t.Errorf("%s run: counter %q is read but not produced", run.name, name)
			}
		}
	}
}

// TestResultSeries checks the trace-to-series bridge used by cmd/dlbrun.
func TestResultSeries(t *testing.T) {
	res := runAndVerify(t, planFor(t, "mm"), map[string]int{"n": 32},
		Config{DLB: true}, cluster.Config{Slaves: 3})
	if len(res.Trace) == 0 {
		t.Fatal("no trace samples")
	}
	raw, filt, work := res.Series(0)
	n := 0
	for _, s := range res.Trace {
		if s.Slave == 0 {
			n++
		}
	}
	if len(raw.V) != n || len(filt.V) != n || len(work.V) != n {
		t.Fatalf("series lengths %d/%d/%d, want %d samples",
			len(raw.V), len(filt.V), len(work.V), n)
	}
	if raw.Max() <= 0 {
		t.Error("raw-rate series has no positive samples")
	}
}
