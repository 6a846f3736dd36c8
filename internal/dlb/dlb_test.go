package dlb

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/loopir"
)

// planFor compiles a library program under its LibraryDist directive, or
// the derived one where the table has none.
func planFor(t testing.TB, name string) *compile.Plan {
	t.Helper()
	prog := loopir.Library()[name]
	if prog == nil {
		t.Fatalf("no program %q", name)
	}
	plan, err := compile.Compile(prog, compile.Options{Dist: compile.LibraryDist(name)})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return plan
}

// runAndVerify executes the plan in parallel and demands bit-exact
// agreement with the sequential reference (per-element operations execute
// in the same order, so even floating point must match exactly).
func runAndVerify(t *testing.T, plan *compile.Plan, params map[string]int, cfg Config, cc cluster.Config) *Result {
	t.Helper()
	cfg.Plan = plan
	cfg.Params = params
	res, err := Run(cfg, cc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
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
			t.Fatalf("array %q missing from result", name)
		}
		d := want.MaxAbsDiff(got)
		if reduction[name] {
			// Parallel reductions reassociate the sum, so the last bits
			// may differ from the sequential order.
			if d > 1e-9 {
				t.Errorf("reduction array %q differs from sequential reference by %g", name, d)
			}
		} else if d != 0 {
			t.Errorf("array %q differs from sequential reference by %g", name, d)
		}
	}
	return res
}

func TestMMParallelCorrect(t *testing.T) {
	res := runAndVerify(t, planFor(t, "mm"), map[string]int{"n": 24},
		Config{DLB: true}, cluster.Config{Slaves: 3})
	if res.Phases == 0 {
		t.Error("no master interactions")
	}
}

func TestSORParallelCorrect(t *testing.T) {
	res := runAndVerify(t, planFor(t, "sor"), map[string]int{"n": 20, "maxiter": 4},
		Config{DLB: true}, cluster.Config{Slaves: 4})
	if !res.Exec.Plan.Restricted {
		t.Error("SOR should be restricted")
	}
}

func TestLUParallelCorrect(t *testing.T) {
	runAndVerify(t, planFor(t, "lu"), map[string]int{"n": 20},
		Config{DLB: true}, cluster.Config{Slaves: 3})
}

func TestJacobiParallelCorrect(t *testing.T) {
	runAndVerify(t, planFor(t, "jacobi"), map[string]int{"n": 16, "maxiter": 3},
		Config{DLB: true}, cluster.Config{Slaves: 3})
}

func TestAxpyParallelCorrect(t *testing.T) {
	runAndVerify(t, planFor(t, "axpy"), map[string]int{"n": 40, "maxiter": 5},
		Config{DLB: true}, cluster.Config{Slaves: 4})
}

func TestSingleSlave(t *testing.T) {
	runAndVerify(t, planFor(t, "sor"), map[string]int{"n": 12, "maxiter": 3},
		Config{DLB: true}, cluster.Config{Slaves: 1})
}

func TestStaticDistribution(t *testing.T) {
	res := runAndVerify(t, planFor(t, "mm"), map[string]int{"n": 16},
		Config{DLB: false}, cluster.Config{Slaves: 4})
	if res.Moves != 0 {
		t.Errorf("static run moved work %d times", res.Moves)
	}
}

func TestSynchronousMode(t *testing.T) {
	runAndVerify(t, planFor(t, "sor"), map[string]int{"n": 16, "maxiter": 3},
		Config{DLB: true, Synchronous: true}, cluster.Config{Slaves: 3})
}

func TestForcedFineGrain(t *testing.T) {
	// Grain 1 = no strip mining benefit (Figure 3b's fine-grain pipeline).
	res := runAndVerify(t, planFor(t, "sor"), map[string]int{"n": 16, "maxiter": 3},
		Config{DLB: true, ForcedGrain: 1}, cluster.Config{Slaves: 3})
	if res.Grain != 1 {
		t.Errorf("grain = %d, want 1", res.Grain)
	}
}

func TestDLBMovesWorkAwayFromLoadedSlave(t *testing.T) {
	// Slave 0 has a constant competing job; runs long enough for several
	// balancing periods.
	plan := planFor(t, "mm")
	params := map[string]int{"n": 32}
	cfg := Config{DLB: true, FlopCost: 50 * time.Microsecond}
	cc := cluster.Config{Slaves: 2, Load: []cluster.LoadProfile{cluster.Constant(1)}}
	res := runAndVerify(t, plan, params, cfg, cc)
	if res.Moves == 0 {
		t.Fatal("no work moved despite persistent imbalance")
	}
	// Final trace sample should show slave 0 with well under half the work.
	last := res.Trace[len(res.Trace)-1]
	var w0, w1 int
	for _, s := range res.Trace {
		if s.Phase == last.Phase {
			if s.Slave == 0 {
				w0 = s.Work
			} else {
				w1 = s.Work
			}
		}
	}
	if w0 >= w1 {
		t.Errorf("loaded slave kept %d units vs %d on the free slave", w0, w1)
	}
}

func TestDLBRestrictedMovesUnderLoad(t *testing.T) {
	plan := planFor(t, "sor")
	params := map[string]int{"n": 48, "maxiter": 14}
	cfg := Config{DLB: true, FlopCost: 60 * time.Microsecond}
	cc := cluster.Config{Slaves: 3, Load: []cluster.LoadProfile{cluster.Constant(1)}}
	res := runAndVerify(t, plan, params, cfg, cc)
	if res.Moves == 0 {
		t.Fatal("no restricted moves under persistent load")
	}
}

func TestLUShrinkingWithDLB(t *testing.T) {
	plan := planFor(t, "lu")
	params := map[string]int{"n": 40}
	cfg := Config{DLB: true, FlopCost: 80 * time.Microsecond}
	cc := cluster.Config{Slaves: 3, Load: []cluster.LoadProfile{cluster.Constant(1)}}
	runAndVerify(t, plan, params, cfg, cc)
}

func TestHeterogeneousSpeeds(t *testing.T) {
	plan := planFor(t, "mm")
	params := map[string]int{"n": 32}
	cfg := Config{DLB: true, FlopCost: 50 * time.Microsecond}
	cc := cluster.Config{Slaves: 2, Speed: []float64{1.0, 3.0}}
	res := runAndVerify(t, plan, params, cfg, cc)
	if res.Moves == 0 {
		t.Fatal("no work moved to the 3x faster slave")
	}
	last := res.Trace[len(res.Trace)-1]
	var w [2]int
	for _, s := range res.Trace {
		if s.Phase == last.Phase {
			w[s.Slave] = s.Work
		}
	}
	if w[1] <= w[0] {
		t.Errorf("fast slave owns %d units vs %d on the slow one", w[1], w[0])
	}
}

func TestSpeedupDedicated(t *testing.T) {
	plan := planFor(t, "mm")
	params := map[string]int{"n": 32}
	cfg := Config{Plan: plan, Params: params, DLB: true, FlopCost: 20 * time.Microsecond}
	res, err := Run(cfg, cluster.Config{Slaves: 4})
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := SequentialTime(plan, params, cfg.FlopCost)
	if err != nil {
		t.Fatal(err)
	}
	speedup := seq.Seconds() / res.Elapsed.Seconds()
	if speedup < 2.0 {
		t.Errorf("speedup on 4 dedicated slaves = %.2f, want > 2", speedup)
	}
}

func TestOscillatingLoadTrace(t *testing.T) {
	plan := planFor(t, "mm")
	params := map[string]int{"n": 32}
	cfg := Config{DLB: true, FlopCost: 400 * time.Microsecond}
	cc := cluster.Config{
		Slaves: 4,
		Load: []cluster.LoadProfile{cluster.SquareWave{
			Period: 6 * time.Second, OnDuration: 3 * time.Second, Tasks: 1,
		}},
	}
	res := runAndVerify(t, plan, params, cfg, cc)
	if len(res.Trace) == 0 {
		t.Fatal("no trace collected")
	}
	// Work assignment of slave 0 must vary over time (tracking the wave).
	min0, max0 := 1<<30, 0
	for _, s := range res.Trace {
		if s.Slave == 0 {
			if s.Work < min0 {
				min0 = s.Work
			}
			if s.Work > max0 {
				max0 = s.Work
			}
		}
	}
	if max0-min0 < 2 {
		t.Errorf("work assignment did not track the oscillating load: min %d max %d", min0, max0)
	}
}

func TestUsageAccounting(t *testing.T) {
	plan := planFor(t, "mm")
	params := map[string]int{"n": 24}
	cfg := Config{Plan: plan, Params: params, DLB: true}
	res, err := Run(cfg, cluster.Config{Slaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Usage) != 2 {
		t.Fatalf("usage entries = %d, want 2", len(res.Usage))
	}
	for i, u := range res.Usage {
		if u.AppCPU <= 0 {
			t.Errorf("slave %d did no work: %+v", i, u)
		}
		if u.CompetingCPU != 0 {
			t.Errorf("slave %d shows competing CPU on a dedicated node: %v", i, u.CompetingCPU)
		}
	}
}

func TestPeriodicSORParallelCorrect(t *testing.T) {
	// Periodic boundary copies exercise §4.6: owner blocks with remote
	// reads, bracketed by broadcasts.
	prog := loopir.Library()["periodic-sor"]
	plan, err := compile.Compile(prog, compile.Options{
		Dist: depend.DistSpec{Dims: map[string]int{"b": 0}, Loops: []string{"j"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	runAndVerify(t, plan, map[string]int{"n": 20, "maxiter": 4},
		Config{DLB: true}, cluster.Config{Slaves: 4})
}

func TestPeriodicSORWithMovement(t *testing.T) {
	prog := loopir.Library()["periodic-sor"]
	plan, err := compile.Compile(prog, compile.Options{
		Dist: depend.DistSpec{Dims: map[string]int{"b": 0}, Loops: []string{"j"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runAndVerify(t, plan, map[string]int{"n": 48, "maxiter": 14},
		Config{DLB: true, FlopCost: 60 * time.Microsecond},
		cluster.Config{Slaves: 3, Load: []cluster.LoadProfile{cluster.Constant(1)}})
	if res.Moves == 0 {
		t.Fatal("no movement under load")
	}
}

func TestDeterministicRuns(t *testing.T) {
	// A run is a pure function of its configuration: two executions give
	// identical timing, movement, and trace.
	plan := planFor(t, "mm")
	params := map[string]int{"n": 32}
	cfg := Config{Plan: plan, Params: params, DLB: true,
		FlopCost: 100 * time.Microsecond}
	cc := cluster.Config{Slaves: 4, Load: []cluster.LoadProfile{
		cluster.SquareWave{Period: 6 * time.Second, OnDuration: 3 * time.Second, Tasks: 1},
	}}
	r1, err := Run(cfg, cc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg, cc)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Elapsed != r2.Elapsed || r1.Moves != r2.Moves || r1.UnitsMoved != r2.UnitsMoved || r1.Phases != r2.Phases {
		t.Fatalf("nondeterministic: (%v,%d,%d,%d) vs (%v,%d,%d,%d)",
			r1.Elapsed, r1.Moves, r1.UnitsMoved, r1.Phases,
			r2.Elapsed, r2.Moves, r2.UnitsMoved, r2.Phases)
	}
	if len(r1.Trace) != len(r2.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(r1.Trace), len(r2.Trace))
	}
	for i := range r1.Trace {
		if r1.Trace[i] != r2.Trace[i] {
			t.Fatalf("trace[%d] differs: %+v vs %+v", i, r1.Trace[i], r2.Trace[i])
		}
	}
	for name := range r1.Final {
		if d := r1.Final[name].MaxAbsDiff(r2.Final[name]); d != 0 {
			t.Fatalf("array %q differs between identical runs by %g", name, d)
		}
	}
}

func TestMoreSlavesThanActiveUnits(t *testing.T) {
	// 8 slaves, 10 units of which 8 are active (SOR boundaries inactive):
	// some slaves own nothing; everything must still verify.
	runAndVerify(t, planFor(t, "sor"), map[string]int{"n": 10, "maxiter": 3},
		Config{DLB: true}, cluster.Config{Slaves: 8})
}

func TestManySlavesLU(t *testing.T) {
	runAndVerify(t, planFor(t, "lu"), map[string]int{"n": 12},
		Config{DLB: true}, cluster.Config{Slaves: 6})
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}, cluster.Config{Slaves: 2}); err == nil {
		t.Error("Run without a plan accepted")
	}
	plan := planFor(t, "mm")
	if _, err := Run(Config{Plan: plan, Params: map[string]int{"n": 8}}, cluster.Config{}); err == nil {
		t.Error("Run with zero slaves accepted")
	}
	if _, err := Run(Config{Plan: plan, Params: map[string]int{}}, cluster.Config{Slaves: 1}); err == nil {
		t.Error("Run with missing params accepted")
	}
}

func TestWakeupModelEndToEnd(t *testing.T) {
	// The OS wakeup model changes timing but never results.
	res := runAndVerify(t, planFor(t, "sor"), map[string]int{"n": 24, "maxiter": 4},
		Config{DLB: true, FlopCost: 40 * time.Microsecond},
		cluster.Config{Slaves: 3, Load: []cluster.LoadProfile{cluster.Constant(1)}, ModelWakeup: true})
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestJacobiConvergeParallelCorrect(t *testing.T) {
	// Data-dependent termination (§4.1): every slave must break at the
	// same iteration (combined residual), and the result — including the
	// reduction value — must match the sequential run exactly.
	prog := loopir.Library()["jacobi-converge"]
	plan, err := compile.Compile(prog, compile.Options{
		Dist: depend.DistSpec{Dims: map[string]int{"a": 0, "anew": 0}, Loops: []string{"i", "i2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Reductions) != 1 || plan.Reductions[0].Array != "r" {
		t.Fatalf("reductions = %v, want [r]", plan.Reductions)
	}
	res := runAndVerify(t, plan, map[string]int{"n": 12, "maxiter": 60},
		Config{DLB: true}, cluster.Config{Slaves: 3})
	// The schedule's upper bound is maxiter sweeps; convergence must stop
	// well before that, visible as far fewer hook visits than phases.
	if got := res.Final["r"].At(0); got >= 1e-2 {
		t.Errorf("gathered residual %g did not converge", got)
	}
}

func TestJacobiConvergeUnderLoad(t *testing.T) {
	prog := loopir.Library()["jacobi-converge"]
	plan, err := compile.Compile(prog, compile.Options{
		Dist: depend.DistSpec{Dims: map[string]int{"a": 0, "anew": 0}, Loops: []string{"i", "i2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runAndVerify(t, plan, map[string]int{"n": 32, "maxiter": 400},
		Config{DLB: true, FlopCost: 30 * time.Microsecond},
		cluster.Config{Slaves: 4, Load: []cluster.LoadProfile{cluster.Constant(1)}})
	if res.Moves == 0 {
		t.Error("no movement under load")
	}
}

func TestJacobi3DParallelCorrect(t *testing.T) {
	// 3-D grid, plane-distributed: exchanges and movement carry 2-D plane
	// slices (the N-dimensional unit-slice paths).
	prog := loopir.Library()["jacobi3d"]
	plan, err := compile.Compile(prog, compile.Options{
		Dist: depend.DistSpec{Dims: map[string]int{"u": 0, "unew": 0}, Loops: []string{"i", "i2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	runAndVerify(t, plan, map[string]int{"n": 12, "maxiter": 3},
		Config{DLB: true}, cluster.Config{Slaves: 3})
}

func TestJacobi3DWithMovement(t *testing.T) {
	prog := loopir.Library()["jacobi3d"]
	plan, err := compile.Compile(prog, compile.Options{
		Dist: depend.DistSpec{Dims: map[string]int{"u": 0, "unew": 0}, Loops: []string{"i", "i2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runAndVerify(t, plan, map[string]int{"n": 16, "maxiter": 16},
		Config{DLB: true, FlopCost: 40 * time.Microsecond},
		cluster.Config{Slaves: 3, Load: []cluster.LoadProfile{cluster.Constant(1)}})
	if res.Moves == 0 {
		t.Fatal("no plane movement under load")
	}
}

func TestDegenerateParamsFailCleanly(t *testing.T) {
	plan := planFor(t, "sor")
	// maxiter=0: no hooks ever fire; Run must return an error, not hang.
	if _, err := Run(Config{Plan: plan, Params: map[string]int{"n": 12, "maxiter": 0}, DLB: true},
		cluster.Config{Slaves: 2}); err == nil {
		t.Error("zero-iteration run did not error")
	}
	// n=2: the interior is empty.
	if _, err := Run(Config{Plan: plan, Params: map[string]int{"n": 2, "maxiter": 3}, DLB: true},
		cluster.Config{Slaves: 2}); err == nil {
		t.Error("empty-interior run did not error")
	}
}
