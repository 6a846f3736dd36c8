package dlb

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
)

// ftConfig is the fault-test harness configuration: virtual-time leases and
// checkpoint intervals scaled so small test programs span several of them.
func ftConfig(fp *fault.Plan) Config {
	return Config{
		DLB:      true,
		Fault:    fp,
		FlopCost: 100 * time.Microsecond,
		Detect: fault.DetectorConfig{
			MissThreshold:  3,
			MinLease:       1500 * time.Millisecond,
			MaxLease:       4 * time.Second,
			HeartbeatEvery: 200 * time.Millisecond,
		},
		Ckpt: fault.CkptPolicy{
			MinInterval: time.Second,
			MaxInterval: 3 * time.Second,
			MaxOverhead: 0.10,
		},
	}
}

func TestFaultCrashMM(t *testing.T) {
	fp := (&fault.Plan{}).CrashAt(1, 1200*time.Millisecond)
	res := runAndVerify(t, planFor(t, "mm"), map[string]int{"n": 40},
		ftConfig(fp), cluster.Config{Slaves: 4})
	if res.Recoveries < 1 {
		t.Errorf("crash did not trigger a recovery (recoveries=%d)", res.Recoveries)
	}
	if len(res.Evicted) != 1 || res.Evicted[0] != 1 {
		t.Errorf("evicted = %v, want [1]", res.Evicted)
	}
	if res.FaultLog.Count(fault.LogCrash) != 1 {
		t.Errorf("fault log: %s", res.FaultLog)
	}
}

// TestFaultAllSlavesCrash: when the fault plan kills every slave, the run
// must fail with the typed ErrNoSurvivors — not panic out of the master —
// whether the slaves die together or one recovery after another.
func TestFaultAllSlavesCrash(t *testing.T) {
	for _, gap := range []time.Duration{0, 2 * time.Second} {
		fp := &fault.Plan{}
		for s := 0; s < 3; s++ {
			fp.CrashAt(s, 1200*time.Millisecond+time.Duration(s)*gap)
		}
		cfg := ftConfig(fp)
		cfg.Plan, cfg.Params = planFor(t, "mm"), map[string]int{"n": 40}
		res, err := Run(cfg, cluster.Config{Slaves: 3})
		if !errors.Is(err, ErrNoSurvivors) {
			t.Errorf("gap %v: Run = (%v, %v), want ErrNoSurvivors", gap, res, err)
		}
	}
}

// assertBlockOwnership checks the replicated-map invariant restricted loops
// rely on: every slave's units form one contiguous block, so carried
// dependences stay between neighbours.
func assertBlockOwnership(t *testing.T, owner []int) {
	t.Helper()
	seen := map[int]bool{}
	for i := 0; i < len(owner); {
		id := owner[i]
		if seen[id] {
			t.Fatalf("slave %d holds non-contiguous blocks: %v", id, owner)
		}
		seen[id] = true
		for i < len(owner) && owner[i] == id {
			i++
		}
	}
}

// TestFaultCrashSOR crashes a middle slave of the restricted (carried-
// dependence) SOR pipeline: recovery must reassign the dead slave's block to
// its neighbours only, keeping every survivor's region contiguous.
func TestFaultCrashSOR(t *testing.T) {
	fp := (&fault.Plan{}).CrashAt(1, 500*time.Millisecond)
	cfg := ftConfig(fp)
	cfg.FlopCost = 300 * time.Microsecond
	cfg.Detect = fault.DetectorConfig{
		MissThreshold: 3, MinLease: 600 * time.Millisecond,
		MaxLease: 4 * time.Second, HeartbeatEvery: 150 * time.Millisecond,
	}
	cfg.Ckpt = fault.CkptPolicy{
		MinInterval: 200 * time.Millisecond, MaxInterval: 500 * time.Millisecond,
		MaxOverhead: 0.2,
	}
	res := runAndVerify(t, planFor(t, "sor"), map[string]int{"n": 32, "maxiter": 12},
		cfg, cluster.Config{Slaves: 4})
	if res.Recoveries < 1 {
		t.Errorf("crash did not trigger a recovery (recoveries=%d)", res.Recoveries)
	}
	if len(res.Evicted) != 1 || res.Evicted[0] != 1 {
		t.Errorf("evicted = %v, want [1]", res.Evicted)
	}
	assertBlockOwnership(t, res.Owner)
	for u, o := range res.Owner {
		if o == 1 {
			t.Fatalf("unit %d still owned by evicted slave 1: %v", u, res.Owner)
		}
	}
}

// TestFaultStallTolerated stalls a slave for less than the detection lease:
// the run must ride it out with no eviction and no recovery.
func TestFaultStallTolerated(t *testing.T) {
	fp := (&fault.Plan{}).StallAt(1, 800*time.Millisecond, 400*time.Millisecond)
	res := runAndVerify(t, planFor(t, "mm"), map[string]int{"n": 40},
		ftConfig(fp), cluster.Config{Slaves: 4})
	if res.Recoveries != 0 {
		t.Errorf("transient stall triggered %d recoveries", res.Recoveries)
	}
	if len(res.Evicted) != 0 {
		t.Errorf("transient stall evicted %v", res.Evicted)
	}
	if res.FaultLog.Count(fault.LogStall) != 1 {
		t.Errorf("fault log: %s", res.FaultLog)
	}
}

// TestFaultStallEvicted stalls a slave past the lease: the master must treat
// it as dead and recover; the woken zombie is killed by its queued eviction.
func TestFaultStallEvicted(t *testing.T) {
	fp := (&fault.Plan{}).StallAt(1, 800*time.Millisecond, 3*time.Second)
	res := runAndVerify(t, planFor(t, "mm"), map[string]int{"n": 40},
		ftConfig(fp), cluster.Config{Slaves: 4})
	if res.Recoveries < 1 {
		t.Errorf("long stall did not trigger a recovery")
	}
	if len(res.Evicted) != 1 || res.Evicted[0] != 1 {
		t.Errorf("evicted = %v, want [1]", res.Evicted)
	}
	if res.FaultLog.Count(fault.LogEvict) != 1 {
		t.Errorf("fault log: %s", res.FaultLog)
	}
}

// TestFaultJoin registers a new node mid-run: the master folds it in at the
// next checkpoint boundary and the balancer redistributes onto it.
func TestFaultJoin(t *testing.T) {
	fp := (&fault.Plan{}).JoinAt(600 * time.Millisecond)
	res := runAndVerify(t, planFor(t, "mm"), map[string]int{"n": 40},
		ftConfig(fp), cluster.Config{Slaves: 4})
	if len(res.Joined) != 1 || res.Joined[0] != 4 {
		t.Fatalf("joined = %v, want [4]", res.Joined)
	}
	if res.Recoveries < 1 {
		t.Errorf("admission must run through a recovery epoch")
	}
	if res.FaultLog.Count(fault.LogJoin) != 1 || res.FaultLog.Count(fault.LogAdopt) != 1 {
		t.Errorf("fault log: %s", res.FaultLog)
	}
	owns := 0
	for _, o := range res.Owner {
		if o == 4 {
			owns++
		}
	}
	if owns == 0 {
		t.Errorf("joiner owns no units at the end: %v", res.Owner)
	}
}

// TestFaultDeterminism runs the same fault plan twice: results and the
// fault-handling event trace must be bit-identical.
func TestFaultDeterminism(t *testing.T) {
	run := func() *Result {
		fp := (&fault.Plan{}).
			CrashAt(1, 1200*time.Millisecond).
			StallAt(2, 600*time.Millisecond, 300*time.Millisecond).
			JoinAt(500 * time.Millisecond)
		cfg := ftConfig(fp)
		cfg.Plan = planFor(t, "mm")
		cfg.Params = map[string]int{"n": 40}
		res, err := Run(cfg, cluster.Config{Slaves: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Recoveries != b.Recoveries || a.Checkpoints != b.Checkpoints {
		t.Errorf("recoveries/checkpoints diverge: %d/%d vs %d/%d",
			a.Recoveries, a.Checkpoints, b.Recoveries, b.Checkpoints)
	}
	if fmt.Sprint(a.Evicted) != fmt.Sprint(b.Evicted) || fmt.Sprint(a.Joined) != fmt.Sprint(b.Joined) {
		t.Errorf("membership diverges: %v/%v vs %v/%v", a.Evicted, a.Joined, b.Evicted, b.Joined)
	}
	if fmt.Sprint(a.Owner) != fmt.Sprint(b.Owner) {
		t.Errorf("final ownership diverges:\n %v\n %v", a.Owner, b.Owner)
	}
	if a.FaultLog.String() != b.FaultLog.String() {
		t.Errorf("fault traces diverge:\n--- run 1:\n%s\n--- run 2:\n%s", a.FaultLog, b.FaultLog)
	}
	if a.Elapsed != b.Elapsed {
		t.Errorf("elapsed diverges: %v vs %v", a.Elapsed, b.Elapsed)
	}
	for name, wa := range a.Final {
		if d := wa.MaxAbsDiff(b.Final[name]); d != 0 {
			t.Errorf("array %q diverges by %g between identical runs", name, d)
		}
	}
}

// TestRealFaultCrashMM exercises the wall-clock runtime under fault
// injection (and the race detector in -race CI runs): a slave crashes before
// sending anything, the lease expires, and the run recovers on the
// survivors.
func TestRealFaultCrashMM(t *testing.T) {
	plan := planFor(t, "mm")
	params := map[string]int{"n": 48}
	cfg := Config{
		Plan: plan, Params: params, DLB: true,
		Fault: (&fault.Plan{}).CrashAt(1, 0),
		Detect: fault.DetectorConfig{
			MissThreshold: 3, MinLease: 300 * time.Millisecond,
			MaxLease: 2 * time.Second, HeartbeatEvery: 50 * time.Millisecond,
		},
		Ckpt: fault.CkptPolicy{
			MinInterval: 100 * time.Millisecond, MaxInterval: 300 * time.Millisecond,
			MaxOverhead: 0.2,
		},
	}
	res, err := RunReal(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, res, plan, params)
	if res.Recoveries < 1 {
		t.Errorf("crash did not trigger a recovery")
	}
	if len(res.Evicted) != 1 || res.Evicted[0] != 1 {
		t.Errorf("evicted = %v, want [1]", res.Evicted)
	}
}
