package dlb

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/loopir"
)

// verifyRealPlan checks a RunReal result against the sequential reference:
// distributed data must be exact; reduction arrays tolerate reassociation.
func verifyRealPlan(t *testing.T, res *Result, plan *compile.Plan, params map[string]int) {
	t.Helper()
	ref, err := loopir.NewInstance(plan.Prog, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	reduction := map[string]bool{}
	for _, r := range plan.Reductions {
		reduction[r.Array] = true
	}
	for name, want := range ref.Arrays {
		got := res.Final[name]
		if got == nil {
			t.Fatalf("array %q missing", name)
		}
		d := want.MaxAbsDiff(got)
		if reduction[name] {
			if d > 1e-9 {
				t.Errorf("reduction %q differs by %g", name, d)
			}
		} else if d != 0 {
			t.Errorf("array %q differs by %g (real run)", name, d)
		}
	}
}

func compilePlan(t *testing.T, prog *loopir.Program, dims map[string]int, loops []string) *compile.Plan {
	t.Helper()
	plan, err := compile.Compile(prog, compile.Options{
		Dist: depend.DistSpec{Dims: dims, Loops: loops},
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestRealRunMM(t *testing.T) {
	plan := planFor(t, "mm")
	res, err := RunReal(Config{Plan: plan, Params: map[string]int{"n": 64}, DLB: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, res, plan, map[string]int{"n": 64})
	if res.Elapsed <= 0 {
		t.Fatal("no wall time recorded")
	}
}

func TestRealRunSORPipelined(t *testing.T) {
	plan := planFor(t, "sor")
	res, err := RunReal(Config{Plan: plan, Params: map[string]int{"n": 64, "maxiter": 6}, DLB: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, res, plan, map[string]int{"n": 64, "maxiter": 6})
	if res.Grain < 1 {
		t.Fatalf("grain = %d", res.Grain)
	}
}

func TestRealRunLU(t *testing.T) {
	plan := planFor(t, "lu")
	res, err := RunReal(Config{Plan: plan, Params: map[string]int{"n": 48}, DLB: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, res, plan, map[string]int{"n": 48})
}

func TestRealRunConvergence(t *testing.T) {
	prog := loopir.Library()["jacobi-converge"]
	plan := compilePlan(t, prog, map[string]int{"a": 0, "anew": 0}, []string{"i", "i2"})
	res, err := RunReal(Config{Plan: plan, Params: map[string]int{"n": 24, "maxiter": 200}, DLB: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, res, plan, map[string]int{"n": 24, "maxiter": 200})
}

func TestRealRunSingleSlave(t *testing.T) {
	plan := planFor(t, "jacobi")
	res, err := RunReal(Config{Plan: plan, Params: map[string]int{"n": 24, "maxiter": 3}, DLB: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, res, plan, map[string]int{"n": 24, "maxiter": 3})
}

func TestRealParallelSpeedup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("wall-clock speedup needs more than one CPU")
	}
	plan := planFor(t, "mm")
	params := map[string]int{"n": 256}
	t0 := time.Now()
	res1, err := RunReal(Config{Plan: plan, Params: params, DLB: false}, 1)
	if err != nil {
		t.Fatal(err)
	}
	one := time.Since(t0)
	res4, err := RunReal(Config{Plan: plan, Params: params, DLB: false}, 4)
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, res4, plan, params)
	// Loose bound: 4 goroutines on >=2 cores should clearly beat 1.
	if res4.Elapsed.Seconds() > 0.8*res1.Elapsed.Seconds() {
		t.Logf("warning: little speedup: 1 slave %v, 4 slaves %v (wall %v)", res1.Elapsed, res4.Elapsed, one)
	}
}

func TestRealDragTriggersMovement(t *testing.T) {
	// Slave 0 is dragged 3x. The run is long enough (> the 500ms period
	// floor) for at least one rebalancing to fire on real measured rates.
	plan := planFor(t, "mm")
	params := map[string]int{"n": 320}
	res, err := RunReal(Config{
		Plan:     plan,
		Params:   params,
		DLB:      true,
		RealDrag: []float64{3.0},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, res, plan, params)
	if res.Moves == 0 {
		t.Log("no movement occurred (run may have been too fast on this machine); data still verified")
	}
}
