package dlb

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/depend"
	"repro/internal/fault"
	"repro/internal/loopir"
)

// overlapPlans compiles every library program with its canonical
// distribution directive (automatic for the sparse programs).
func overlapPlans(t testing.TB) map[string]*compile.Plan {
	t.Helper()
	specs := map[string]depend.DistSpec{
		"mm":              {Dims: map[string]int{"c": 1, "b": 1}, Loops: []string{"j"}},
		"sor":             {Dims: map[string]int{"b": 0}, Loops: []string{"j"}},
		"lu":              {Dims: map[string]int{"a": 1}, Loops: []string{"j"}},
		"jacobi":          {Dims: map[string]int{"a": 0, "anew": 0}, Loops: []string{"i", "i2"}},
		"axpy":            {Dims: map[string]int{"x": 0, "y": 0}, Loops: []string{"i"}},
		"threshold-relax": {Dims: map[string]int{"v": 1}, Loops: []string{"j"}},
		"periodic-sor":    {Dims: map[string]int{"b": 0}, Loops: []string{"j"}},
		"jacobi-converge": {Dims: map[string]int{"a": 0, "anew": 0}, Loops: []string{"i", "i2"}},
		"jacobi3d":        {Dims: map[string]int{"u": 0, "unew": 0}, Loops: []string{"i", "i2"}},
	}
	plans := map[string]*compile.Plan{}
	for name, prog := range loopir.Library() {
		plan, err := compile.Compile(prog, compile.Options{Dist: specs[name]})
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		plans[name] = plan
	}
	return plans
}

var overlapParams = map[string]map[string]int{
	"mm":              {"n": 24},
	"sor":             {"n": 32, "maxiter": 4},
	"lu":              {"n": 32},
	"jacobi":          {"n": 48, "maxiter": 6},
	"axpy":            {"n": 256, "maxiter": 4},
	"threshold-relax": {"n": 32, "maxiter": 4},
	"periodic-sor":    {"n": 32, "maxiter": 4},
	"jacobi-converge": {"n": 48, "maxiter": 8},
	"jacobi3d":        {"n": 16, "maxiter": 4},
	"spmv":            {"n": 256, "maxiter": 2},
	"pbin":            {"n": 64, "maxiter": 2},
}

// overlapEligible marks the programs whose plans carry split-loop eligible
// exchanges (pinned by compile's TestOverlapLibraryEligibility).
var overlapEligible = map[string]bool{
	"jacobi": true, "jacobi-converge": true, "jacobi3d": true,
}

// TestOverlapBitIdentical is the tentpole's safety guarantee: the split
// interior/boundary schedule must be a pure latency optimization. For every
// library program, pipelined and synchronous, 2–8 slaves, overlap on and
// off must produce bit-identical results, the same phase/move schedule, and
// the same final ownership; on eligible programs the overlapped run must
// actually overlap (overlap_rounds > 0) and must never be slower than the
// synchronous exchange in simulated time.
func TestOverlapBitIdentical(t *testing.T) {
	plans := overlapPlans(t)
	for name, plan := range plans {
		params := overlapParams[name]
		if params == nil {
			t.Fatalf("no params for %q", name)
		}
		for _, sync := range []bool{false, true} {
			for _, slaves := range []int{2, 4, 8} {
				base := Config{Plan: plan, Params: params, DLB: true, Synchronous: sync}
				cc := cluster.Config{Slaves: slaves}

				on := base
				on.Overlap = OverlapEnabled
				ron, err := Run(on, cc)
				if err != nil {
					t.Fatalf("%s sync=%v slaves=%d overlap on: %v", name, sync, slaves, err)
				}
				off := base
				off.Overlap = OverlapDisabled
				roff, err := Run(off, cc)
				if err != nil {
					t.Fatalf("%s sync=%v slaves=%d overlap off: %v", name, sync, slaves, err)
				}

				if ron.Phases != roff.Phases || ron.Moves != roff.Moves || ron.UnitsMoved != roff.UnitsMoved {
					t.Errorf("%s sync=%v slaves=%d: schedule diverged: phases %d/%d moves %d/%d units %d/%d",
						name, sync, slaves, ron.Phases, roff.Phases, ron.Moves, roff.Moves, ron.UnitsMoved, roff.UnitsMoved)
				}
				if !reflect.DeepEqual(ron.Owner, roff.Owner) {
					t.Errorf("%s sync=%v slaves=%d: final ownership diverged", name, sync, slaves)
				}
				for arr, want := range roff.Final {
					got := ron.Final[arr]
					if got == nil {
						t.Fatalf("%s: array %q missing from overlapped result", name, arr)
					}
					if d := want.MaxAbsDiff(got); d != 0 {
						t.Errorf("%s sync=%v slaves=%d: array %q differs by %g", name, sync, slaves, arr, d)
					}
				}
				rounds := ron.Counters["overlap_rounds"]
				if overlapEligible[name] {
					if rounds == 0 {
						t.Errorf("%s sync=%v slaves=%d: eligible program ran 0 overlap rounds", name, sync, slaves)
					}
					if ron.Elapsed > roff.Elapsed {
						t.Errorf("%s sync=%v slaves=%d: overlapped elapsed %v > synchronous %v",
							name, sync, slaves, ron.Elapsed, roff.Elapsed)
					}
				} else if rounds != 0 {
					t.Errorf("%s sync=%v slaves=%d: ineligible program reported %d overlap rounds",
						name, sync, slaves, rounds)
				}
				if roff.Counters["overlap_rounds"] != 0 {
					t.Errorf("%s sync=%v slaves=%d: overlap off still counted rounds", name, sync, slaves)
				}
			}
		}
		// Once per program: the overlapped result must also match the
		// sequential reference bit for bit.
		runAndVerify(t, plan, params, Config{DLB: true, Overlap: OverlapEnabled}, cluster.Config{Slaves: 4})
	}
}

// TestOverlapTiersBitIdentical runs the eligible jacobi-family programs
// through every execution tier (interp, VM kernel, AOT) with overlap on and
// off: the split is just two range calls, so every tier must agree bit for
// bit and still overlap.
func TestOverlapTiersBitIdentical(t *testing.T) {
	tiers := []string{KernelInterp, KernelVM, KernelAOT}
	for _, name := range []string{"jacobi", "jacobi3d"} {
		plan := overlapPlans(t)[name]
		params := overlapParams[name]
		var ref *Result
		for _, tier := range tiers {
			base := Config{Plan: plan, Params: params, DLB: true, Kernel: tier}
			cc := cluster.Config{Slaves: 4}
			on := base
			on.Overlap = OverlapEnabled
			ron, err := Run(on, cc)
			if err != nil {
				t.Fatalf("%s %s overlap on: %v", name, tier, err)
			}
			off := base
			off.Overlap = OverlapDisabled
			roff, err := Run(off, cc)
			if err != nil {
				t.Fatalf("%s %s overlap off: %v", name, tier, err)
			}
			if ron.Counters["overlap_rounds"] == 0 {
				t.Errorf("%s %s: no overlap rounds", name, tier)
			}
			for arr, want := range roff.Final {
				if d := want.MaxAbsDiff(ron.Final[arr]); d != 0 {
					t.Errorf("%s %s: overlap on/off differ on %q by %g", name, tier, arr, d)
				}
			}
			if ref == nil {
				ref = ron
				continue
			}
			for arr, want := range ref.Final {
				if d := want.MaxAbsDiff(ron.Final[arr]); d != 0 {
					t.Errorf("%s %s: differs from first tier on %q by %g", name, tier, arr, d)
				}
			}
		}
	}
}

// TestOverlapFaultFallback crashes a slave mid-run with overlap enabled:
// recovery must drop any in-flight split round cleanly (no hang, no
// corruption) and the run must still finish with the correct values. The
// same fault plan with overlap off must agree bit for bit.
func TestOverlapFaultFallback(t *testing.T) {
	fp := (&fault.Plan{}).CrashAt(1, 1200*time.Millisecond)
	plan := planFor(t, "jacobi")
	params := map[string]int{"n": 48, "maxiter": 10}

	on := ftConfig(fp)
	on.Overlap = OverlapEnabled
	ron := runAndVerify(t, plan, params, on, cluster.Config{Slaves: 4})
	if ron.Recoveries < 1 {
		t.Fatalf("crash did not trigger a recovery (recoveries=%d)", ron.Recoveries)
	}
	if ron.Counters["overlap_rounds"] == 0 {
		t.Errorf("recovered run reported no overlap rounds")
	}

	off := ftConfig(fp)
	off.Overlap = OverlapDisabled
	roff := runAndVerify(t, plan, params, off, cluster.Config{Slaves: 4})
	if ron.Recoveries != roff.Recoveries {
		t.Errorf("recoveries diverged: %d (on) vs %d (off)", ron.Recoveries, roff.Recoveries)
	}
	for arr, want := range roff.Final {
		if d := want.MaxAbsDiff(ron.Final[arr]); d != 0 {
			t.Errorf("fault run overlap on/off differ on %q by %g", arr, d)
		}
	}
}

// TestBcastTreeMatchesReference pins the binomial broadcast relay to the
// sequential reference: the broadcast programs (LU's pivot column,
// periodic-sor's boundary refresh) must gather exactly the interpreter's
// arrays at power-of-two and odd memberships alike — the tree's
// owner-relative rank arithmetic wraps differently at each — and after a
// crash has punched a hole in the alive roster the ranks are computed over.
func TestBcastTreeMatchesReference(t *testing.T) {
	for _, name := range []string{"lu", "periodic-sor"} {
		plan := overlapPlans(t)[name]
		params := overlapParams[name]
		for _, slaves := range []int{2, 3, 4, 5, 6, 8} {
			runAndVerify(t, plan, params, Config{DLB: true}, cluster.Config{Slaves: slaves})
		}
		// Slave 2 of 6 dies mid-run: every later broadcast runs over the
		// five survivors {0,1,3,4,5}, whichever of them owns the unit.
		cfg := ftConfig((&fault.Plan{}).CrashAt(2, 300*time.Millisecond))
		res := runAndVerify(t, plan, params, cfg, cluster.Config{Slaves: 6})
		if res.Recoveries < 1 || len(res.Evicted) != 1 || res.Evicted[0] != 2 {
			t.Errorf("%s: crash of slave 2 not recovered: recoveries=%d evicted=%v", name, res.Recoveries, res.Evicted)
		}
	}
}

// BenchmarkGhostLists measures the ghost-list cache: ownership changes only
// at hooks, so per-iteration exchanges reuse the memoized needs/supplies
// lists instead of rescanning the ownership map.
func BenchmarkGhostLists(b *testing.B) {
	o := core.NewBlockOwnership(4096, 8)
	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ghostNeeds(o, 3, 1)
			ghostNeeds(o, 3, -1)
			ghostSupplies(o, 3, 1)
			ghostSupplies(o, 3, -1)
		}
	})
	b.Run("cached", func(b *testing.B) {
		s := &slave{id: 3, own: o}
		for i := 0; i < b.N; i++ {
			s.ghostNeedsCached(1)
			s.ghostNeedsCached(-1)
			s.ghostSuppliesCached(1)
			s.ghostSuppliesCached(-1)
		}
	})
}
