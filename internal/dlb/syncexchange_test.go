package dlb

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/fault"
	"repro/internal/lang"
)

// The synchronous ghost-exchange schedule — Overlap off, and every group
// the compiler refuses to split — is what a TCP run executes. An exchange
// group is one step: all its sends are posted before its first receive.

// TestSyncExchangePaysOneLatency pins the schedule's virtual-time cost on a
// communication-bound jacobi (BENCH_overlap.json's 31 ns column): a sweep
// waits one link latency for its ghosts, where the per-direction steps
// before it waited a round trip — a slave's +1 row only left once its −1
// receive had completed. The overlapped schedule always posted both
// directions first, so its makespans are where they were.
func TestSyncExchangePaysOneLatency(t *testing.T) {
	plan := overlapPlans(t)["jacobi"]
	for _, c := range []struct {
		slaves                int
		sync, perStep, overlp time.Duration
	}{
		{2, 22419264, 27903744, 18334784},
		{4, 16616704, 21160416, 13442784},
	} {
		run := func(mode string) time.Duration {
			t.Helper()
			res, err := Run(Config{
				Plan: plan, Params: map[string]int{"n": 128, "maxiter": 8},
				DLB: true, FlopCost: 31 * time.Nanosecond, Overlap: mode,
			}, cluster.Config{Slaves: c.slaves})
			if err != nil {
				t.Fatal(err)
			}
			return res.Elapsed
		}
		sync := run(OverlapDisabled)
		if sync != c.sync {
			t.Errorf("P=%d synchronous makespan = %d ns, want %d", c.slaves, sync, c.sync)
		}
		if sync >= c.perStep {
			t.Errorf("P=%d synchronous makespan %v is not under the per-direction schedule's %v", c.slaves, sync, c.perStep)
		}
		// 8 sweeps, one 500 µs link latency saved per sweep, plus what the
		// second direction's send overhead no longer delays.
		if saved := c.perStep - sync; saved < 8*500*time.Microsecond {
			t.Errorf("P=%d saved %v, want at least a link latency per sweep", c.slaves, saved)
		}
		if got := run(OverlapEnabled); got != c.overlp {
			t.Errorf("P=%d overlapped makespan = %d ns, want %d (unchanged)", c.slaves, got, c.overlp)
		}
	}
}

// TestSyncExchangeDifferential: with the overlap off, the two-direction
// stencils gather exactly the sequential interpreter's arrays on the
// simulator and on goroutine slaves, at every membership from 2 to 5 (the
// TCP leg is netrun's TestLoopbackSyncExchange).
func TestSyncExchangeDifferential(t *testing.T) {
	plans := overlapPlans(t)
	for _, name := range []string{"jacobi", "jacobi3d", "jacobi-converge"} {
		plan, params := plans[name], overlapParams[name]
		for slaves := 2; slaves <= 5; slaves++ {
			t.Run(fmt.Sprintf("%s/sim/%d", name, slaves), func(t *testing.T) {
				res := runAndVerify(t, plan, params, Config{DLB: true, Overlap: OverlapDisabled}, cluster.Config{Slaves: slaves})
				if res.Counters.Get("overlap_rounds") != 0 {
					t.Errorf("overlap off counted %d rounds", res.Counters.Get("overlap_rounds"))
				}
			})
			t.Run(fmt.Sprintf("%s/real/%d", name, slaves), func(t *testing.T) {
				res, err := RunReal(Config{Plan: plan, Params: params, DLB: true, Overlap: OverlapDisabled}, slaves)
				if err != nil {
					t.Fatal(err)
				}
				verifyRealPlan(t, res, plan, params)
			})
		}
	}
}

// twoSweepSrc reads the same two ghosts of a in two loops under one carrier,
// so its exchange group holds (a,−1), (a,+1) twice: on two slaves each
// receives both ghosts of the group from the same peer under the same tag,
// and only the mailbox's FIFO order tells the first sweep's from the
// second's. (A periodic boundary cannot make this case: the compiler turns
// a wrapped read into owner broadcasts, as in periodic-sor.)
const twoSweepSrc = `
program twosweep(n, maxiter)
array a[n][n] init hash(5);
array p[n][n];
array q[n][n];
for iter = 0 to maxiter {
    for i = 1 to n-1 {
        for j = 1 to n-1 {
            p[i][j] = 0.5*(a[i-1][j] + a[i+1][j]);
        }
    }
    for i2 = 1 to n-1 {
        for j2 = 1 to n-1 {
            q[i2][j2] = 0.25*(a[i2-1][j2] + a[i2+1][j2]) + 0.5*a[i2][j2];
        }
    }
    for i3 = 1 to n-1 {
        for j3 = 1 to n-1 {
            a[i3][j3] = 0.5*(p[i3][j3] + q[i3][j3]);
        }
    }
}
`

func twoSweepPlan(t *testing.T) *compile.Plan {
	t.Helper()
	prog, err := lang.Parse(twoSweepSrc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compile.Compile(prog, compile.Options{Dist: depend.DistSpec{
		Dims: map[string]int{"a": 0, "p": 0, "q": 0}, Loops: []string{"i", "i2", "i3"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(plan.Source, "exchange_ghost(a, "); got != 4 {
		t.Fatalf("twosweep renders %d exchange parts on a, want 4:\n%s", got, plan.Source)
	}
	return plan
}

// TestSyncExchangeSameTagFIFO runs the four-part, one-tag group with the
// overlap off and on, on the simulator and on goroutine slaves.
func TestSyncExchangeSameTagFIFO(t *testing.T) {
	plan := twoSweepPlan(t)
	params := map[string]int{"n": 20, "maxiter": 6}
	for _, mode := range []string{OverlapDisabled, OverlapEnabled} {
		for _, slaves := range []int{2, 3} {
			runAndVerify(t, plan, params, Config{DLB: true, Overlap: mode}, cluster.Config{Slaves: slaves})
			res, err := RunReal(Config{Plan: plan, Params: params, DLB: true, Overlap: mode}, slaves)
			if err != nil {
				t.Fatal(err)
			}
			verifyRealPlan(t, res, plan, params)
		}
	}
}

// TestSyncExchangeEmptiedSlave: a heavily loaded middle slave hands all its
// units to its neighbours, which from then on exchange ghosts across it —
// and it keeps executing the group with nothing to send or receive.
func TestSyncExchangeEmptiedSlave(t *testing.T) {
	plan := overlapPlans(t)["jacobi"]
	cfg := Config{DLB: true, FlopCost: time.Millisecond, Overlap: OverlapDisabled}
	res := runAndVerify(t, plan, map[string]int{"n": 12, "maxiter": 60}, cfg,
		cluster.Config{Slaves: 3, Load: []cluster.LoadProfile{nil, cluster.Constant(30)}})
	for u, o := range res.Owner {
		if o == 1 {
			t.Fatalf("slave 1 still owns unit %d: the scenario no longer empties a slave (owner map %v)", u, res.Owner)
		}
	}
}

// TestSyncExchangeCrashRecovery kills a slave mid-run: the survivors' fast
// forward skips whole groups, a group whose receives were deferred when the
// recovery struck is dropped, and the replayed epoch still lands on the
// sequential arrays — with the overlap off and on.
func TestSyncExchangeCrashRecovery(t *testing.T) {
	plan := twoSweepPlan(t)
	params := map[string]int{"n": 48, "maxiter": 10}
	for _, mode := range []string{OverlapDisabled, OverlapEnabled} {
		cfg := ftConfig((&fault.Plan{}).CrashAt(1, 1200*time.Millisecond))
		cfg.Overlap = mode
		res := runAndVerify(t, plan, params, cfg, cluster.Config{Slaves: 4})
		if res.Recoveries < 1 {
			t.Errorf("overlap %s: crash did not trigger a recovery", mode)
		}
	}
}
