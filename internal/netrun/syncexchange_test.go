package netrun

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dlb"
)

// The synchronous ghost-exchange schedule (dlb.OverlapDisabled) is what the
// benchmark's tcp_jacobi_aot workload runs: every part of an exchange group
// is sent before the first receive, over real sockets.

// TestLoopbackSyncExchange is the TCP leg of dlb's
// TestSyncExchangeDifferential: the two-direction stencils on 2–5 loopback
// daemons, overlap off, bit-equal to the sequential interpreter.
func TestLoopbackSyncExchange(t *testing.T) {
	for _, prog := range []struct {
		name    string
		n, iter int
	}{{"jacobi", 48, 6}, {"jacobi3d", 16, 4}, {"jacobi-converge", 48, 8}} {
		plan, params := testPlan(t, prog.name, prog.n, prog.iter)
		ref := seqReference(t, plan, params)
		for slaves := 2; slaves <= 5; slaves++ {
			t.Run(fmt.Sprintf("%s/%d", prog.name, slaves), func(t *testing.T) {
				addrs, _ := startServers(t, slaves, ServerOptions{})
				cfg := dlb.Config{Plan: plan, Params: params, DLB: true, Overlap: dlb.OverlapDisabled}
				res, err := RunMaster(cfg, addrs, MasterOptions{})
				if err != nil {
					t.Fatal(err)
				}
				checkGather(t, plan, res, ref)
			})
		}
	}
}

// TestSyncExchangeSoak runs the benchmark's shape forty times, each on a
// fresh pair of daemons: 2 slaves, jacobi, overlap off, 300 exchange groups
// a run. A run that gathers a wrong array is counted and fails the test; one
// that has not come back in 30 s is wedged and ends it.
func TestSyncExchangeSoak(t *testing.T) {
	const runs = 40
	plan, params := testPlan(t, "jacobi", 128, 300)
	ref := seqReference(t, plan, params)
	wrong := 0
	for i := 0; i < runs; i++ {
		addrs, srvs := startServers(t, 2, ServerOptions{})
		type outcome struct {
			res *dlb.Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			cfg := dlb.Config{Plan: plan, Params: params, DLB: true, Overlap: dlb.OverlapDisabled}
			res, err := RunMaster(cfg, addrs, MasterOptions{})
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatalf("run %d: %v", i, o.err)
			}
			for name, want := range ref {
				if got := o.res.Final[name]; got == nil || want.MaxAbsDiff(got) != 0 {
					t.Errorf("run %d: array %s differs from the sequential reference", i, name)
					wrong++
					break
				}
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("run %d has not returned in 30 s (wedged); %d wrong so far", i, wrong)
		}
		for _, s := range srvs {
			s.Close()
		}
	}
	t.Logf("%d runs: %d wrong, 0 wedged", runs, wrong)
}
