package netrun

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/dlb"
	"repro/internal/fault"
	"repro/internal/loopir"
)

// ftDetect is the failure-detection config every fault-layer test shares:
// a lease tight enough that evictions are prompt, stretched under the race
// detector whose slowdown otherwise makes healthy slaves miss heartbeats.
func ftDetect() fault.DetectorConfig {
	if raceDetector {
		return fault.DetectorConfig{MinLease: 4 * time.Second, HeartbeatEvery: 250 * time.Millisecond}
	}
	return fault.DetectorConfig{MinLease: 400 * time.Millisecond, HeartbeatEvery: 100 * time.Millisecond}
}

// ftConfig is the fast-detection fault config the service-layer tests
// share: tight leases so evictions are prompt, a short checkpoint interval
// so forced cuts never wait on the throttle.
func ftConfig(t *testing.T, name string, n, iter int) dlb.Config {
	t.Helper()
	plan, params := testPlan(t, name, n, iter)
	return dlb.Config{
		Plan:        plan,
		Params:      params,
		DLB:         true,
		RealQuantum: 2 * time.Millisecond,
		Fault:       &fault.Plan{},
		Detect:      ftDetect(),
		Ckpt:        fault.CkptPolicy{MinInterval: 150 * time.Millisecond},
	}
}

func mustEqualArrays(t *testing.T, label string, got, want map[string]*loopir.Array) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if g == nil {
			t.Fatalf("%s: array %s missing", label, name)
		}
		if d := w.MaxAbsDiff(g); d != 0 {
			t.Errorf("%s: array %s differs: max |diff| = %g", label, name, d)
		}
	}
}

// TestPreemptResumeBitIdentical is the scheduler round trip: an
// uninterrupted reference run, then the same plan preempted mid-run via
// PreemptControl (checkpoint + release), then resumed from the returned
// snapshot on the same daemons. The resumed result must be bit-identical
// to both the uninterrupted run and the sequential reference.
func TestPreemptResumeBitIdentical(t *testing.T) {
	cfg := ftConfig(t, "mm", 256, 0)
	addrs, _ := startServers(t, 4, ServerOptions{Drag: 20, Timeouts: Timeouts{Dial: 5 * time.Second}})
	pre, err := dlb.Prepare(cfg, len(addrs))
	if err != nil {
		t.Fatal(err)
	}
	opt := MasterOptions{Prepared: pre}
	ref := seqReference(t, cfg.Plan, cfg.Params)

	uncut, err := RunMaster(cfg, addrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, uncut, ref)

	// Preempt from the very start: the master must cut at its first
	// consumable round and release the pool.
	pcfg := cfg
	pcfg.Preempt = &dlb.PreemptControl{}
	pcfg.Preempt.Request()
	stopped, err := RunMaster(pcfg, addrs, opt)
	if !errors.Is(err, dlb.ErrPreempted) {
		t.Fatalf("preempted run: err = %v, want ErrPreempted", err)
	}
	if stopped == nil || stopped.Checkpoint == nil {
		t.Fatal("preempted run returned no checkpoint")
	}
	if stopped.Counters["preemptions"] != 1 {
		t.Errorf("preemptions counter = %d, want 1", stopped.Counters["preemptions"])
	}

	// Resume on the same (just-released) daemons: the busy-retry in the
	// handshake absorbs the teardown race, and the recovery epoch replays
	// the snapshot.
	rcfg := cfg
	rcfg.Resume = stopped.Checkpoint
	resumed, err := RunMaster(rcfg, addrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Counters["resumes"] != 1 {
		t.Errorf("resumes counter = %d, want 1", resumed.Counters["resumes"])
	}
	checkBitIdentical(t, resumed, ref)
	mustEqualArrays(t, "resumed vs uninterrupted", resumed.Final, uncut.Final)
}

// TestBackToBackRunsScatterTheirOwnData puts two jobs on the same daemons
// whose program text — and so plan hash, node ids and membership — agree
// and whose data does not: array a's initializer is an opaque func, which
// lang.Format renders as zero initialization. A daemon that kept anything
// of the first job's scatter for the second would gather the first one's
// product. Each job runs twice under one pinned Prepared: every gather
// equals its own sequential reference bit for bit, and the resubmission
// pays the same scatter as the first submission.
func TestBackToBackRunsScatterTheirOwnData(t *testing.T) {
	addrs, _ := startServers(t, 2, ServerOptions{})
	for _, scale := range []float64{1, 3} {
		prog := loopir.MatMul()
		a := prog.Array("a")
		base := a.Init
		a.InitSpec = ""
		a.Init = func(idx []int) float64 { return scale * base(idx) }
		plan, err := compile.Compile(prog, compile.Options{})
		if err != nil {
			t.Fatal(err)
		}
		params := map[string]int{"n": 32}
		cfg := dlb.Config{Plan: plan, Params: params, DLB: true, RealQuantum: 2 * time.Millisecond}
		pre, err := dlb.Prepare(cfg, len(addrs))
		if err != nil {
			t.Fatal(err)
		}
		ref := seqReference(t, plan, params)
		var scattered [2]int64
		for run := range scattered {
			res, err := RunMaster(cfg, addrs, MasterOptions{Prepared: pre})
			if err != nil {
				t.Fatal(err)
			}
			checkBitIdentical(t, res, ref)
			scattered[run] = res.Counters["scatter_bytes"]
		}
		// a's 32 rows alone are 8 KB: a scatter below that shipped no data.
		if scattered[0] < 8*32*32 || scattered[1] != scattered[0] {
			t.Errorf("a ×%g: scatter_bytes = %d then %d, want the same bulk scatter twice", scale, scattered[0], scattered[1])
		}
	}
}

// TestRejectBusyTyped contends for a daemon that is mid-run: the second
// master's handshake must fail with an error wrapping ErrBusy (the
// retryable rejection), not a generic protocol error.
func TestRejectBusyTyped(t *testing.T) {
	cfg := ftConfig(t, "sor", 128, 8)
	addrs, srvs := startServers(t, 4, ServerOptions{Drag: 20, Timeouts: Timeouts{Dial: 5 * time.Second}})
	done := runFT(cfg, addrs, MasterOptions{})

	// Wait for the run to occupy daemon 0 before contending, so the
	// contender can't steal the idle daemon instead.
	deadline := time.Now().Add(10 * time.Second)
	for {
		srvs[0].mu.Lock()
		busy := srvs[0].sess != nil
		srvs[0].mu.Unlock()
		if busy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never occupied daemon 0")
		}
		time.Sleep(10 * time.Millisecond)
	}

	_, err := RunMaster(cfg, addrs[:1], MasterOptions{Timeouts: Timeouts{Dial: 400 * time.Millisecond}})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("contender err = %v, want ErrBusy", err)
	}
	// The contender redialed for its whole dial budget, and every refusal
	// came before the compile: the daemon compiled the running job's
	// program and looked nothing else up.
	if hits, misses := srvs[0].CompileCacheStats(); hits != 0 || misses != 1 {
		t.Errorf("busy daemon's compile cache: %d hits, %d misses; want 0, 1", hits, misses)
	}

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
}

// TestShutdownDrains sends a graceful Shutdown to one daemon mid-run: the
// active session must be allowed to finish (no eviction), and once
// Shutdown returns the port must be immediately rebindable.
func TestShutdownDrains(t *testing.T) {
	cfg := ftConfig(t, "sor", 128, 6)
	addrs, srvs := startServers(t, 4, ServerOptions{Drag: 10, Timeouts: Timeouts{Dial: 5 * time.Second}})
	live := watchRun(t)
	done := runFT(cfg, addrs, MasterOptions{})

	// A pipelined sor run this short commits no checkpoint: a live session
	// on daemon 0 is the progress mark.
	live(0, 0)
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srvs[0].Shutdown(60 * time.Second) }()

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.res.Evicted) != 0 {
		t.Errorf("graceful shutdown evicted %v; the drain should have let the run finish", out.res.Evicted)
	}
	checkBitIdentical(t, out.res, seqReference(t, cfg.Plan, cfg.Params))

	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown did not return after the run completed")
	}
	ln, err := net.Listen("tcp", srvs[0].Addr())
	if err != nil {
		t.Fatalf("port not rebindable after Shutdown: %v", err)
	}
	ln.Close()
}

// TestClosePromptAndRebindable closes a daemon mid-run the hard way, once
// the run has committed its first checkpoint: Close must return promptly
// (the poisoned mailbox unwinds the slave loop while the router flushes)
// and leave the port rebindable; the master evicts the node and finishes on
// the survivors.
func TestClosePromptAndRebindable(t *testing.T) {
	cfg := ftConfig(t, "mm", 256, 0)
	addrs, srvs := startServers(t, 4, ServerOptions{Drag: 60, Timeouts: Timeouts{Dial: 2 * time.Second}})
	live := watchRun(t)
	done := runFT(cfg, addrs, MasterOptions{})

	live(2, int64(len(addrs)))
	closed := make(chan error, 1)
	go func() { closed <- srvs[2].Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Close hung on a mid-run session")
	}
	ln, err := net.Listen("tcp", srvs[2].Addr())
	if err != nil {
		t.Fatalf("port not rebindable after Close: %v", err)
	}
	ln.Close()

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkBitIdentical(t, out.res, seqReference(t, cfg.Plan, cfg.Params))
}
