package netrun

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dlb"
)

// TestTraceOnEveryEndpoint: every run records Figure 9's series, whatever
// its endpoint — the simulator, goroutine slaves and TCP daemons — with no
// option set. A fault-free run has one sample per slave per decision round.
func TestTraceOnEveryEndpoint(t *testing.T) {
	const slaves = 3
	plan, params := testPlan(t, "mm", 48, 0)
	cfg := dlb.Config{Plan: plan, Params: params, DLB: true, RealQuantum: 2 * time.Millisecond}
	runs := map[string]func() (*dlb.Result, error){
		"sim":  func() (*dlb.Result, error) { return dlb.Run(cfg, cluster.Config{Slaves: slaves}) },
		"real": func() (*dlb.Result, error) { return dlb.RunReal(cfg, slaves) },
		"tcp": func() (*dlb.Result, error) {
			addrs, _ := startServers(t, slaves, ServerOptions{})
			return RunMaster(cfg, addrs, MasterOptions{})
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			checkBitIdentical(t, res, seqReference(t, plan, params))
			checkTrace(t, res, slaves)
		})
	}
}

// checkTrace asserts the trace is rounds of one sample per slave, in slave
// order, with ascending phases, non-decreasing time, and a positive raw rate
// for every slave that held work through the interval it reports on.
func checkTrace(t *testing.T, res *dlb.Result, slaves int) {
	t.Helper()
	if res.Phases == 0 || len(res.Trace) != res.Phases*slaves {
		t.Fatalf("%d samples over %d rounds of %d slaves, want one per slave per round",
			len(res.Trace), res.Phases, slaves)
	}
	// A round's instructions take effect at the next hook, so the interval a
	// status reports on ran the assignment decided two rounds earlier. The
	// initial block distribution gives every slave work.
	held := make([][]int, slaves)
	for s := range held {
		held[s] = []int{1, 1}
	}
	for r := 0; r < res.Phases; r++ {
		round := res.Trace[r*slaves : (r+1)*slaves]
		for s, smp := range round {
			if smp.Slave != s || smp.Phase != round[0].Phase || smp.Time != round[0].Time {
				t.Fatalf("round %d sample %d: %+v is not slave %d at the round's phase and time", r, s, smp, s)
			}
			if held[s][0] > 0 && held[s][1] > 0 && smp.RawRate <= 0 {
				t.Errorf("round %d: slave %d held work but reported rate %g", r, s, smp.RawRate)
			}
			held[s] = []int{held[s][1], smp.Work}
		}
		if r > 0 {
			prev := res.Trace[(r-1)*slaves]
			if round[0].Phase <= prev.Phase || round[0].Time < prev.Time {
				t.Fatalf("round %d (phase %d at %v) does not follow phase %d at %v",
					r, round[0].Phase, round[0].Time, prev.Phase, prev.Time)
			}
		}
	}
}
