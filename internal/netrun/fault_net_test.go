package netrun

import (
	"errors"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/aot"
	"repro/internal/cluster"
	"repro/internal/dlb"
	"repro/internal/dlb/wire"
	"repro/internal/fault"
)

// rawDial opens a framed connection for hand-rolled handshake tests.
func rawDial(t *testing.T, addr string) (net.Conn, *wire.Conn) {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return nc, wire.NewConn(nc)
}

// recvReject reads one frame and requires it to be a RejectMsg.
func recvReject(t *testing.T, wc *wire.Conn) wire.RejectMsg {
	t.Helper()
	env, err := wc.Recv()
	if err != nil {
		t.Fatalf("reading reject: %v", err)
	}
	if env.Tag != wire.TagReject {
		t.Fatalf("expected reject frame, got %q", env.Tag)
	}
	rej, ok := env.Payload.(wire.RejectMsg)
	if !ok {
		t.Fatalf("malformed reject payload %T", env.Payload)
	}
	return rej
}

// TestRejectVersionMismatch dials a slave daemon and opens the handshake
// with another protocol version — 4, the last that sent status and
// instruction frames on gob, 5, the last whose status frame carried the
// interpreter's units, and one from the future; the daemon must refuse each
// with a typed version-mismatch rejection and stay available for a real
// run.
func TestRejectVersionMismatch(t *testing.T) {
	addrs, _ := startServers(t, 1, ServerOptions{})
	for _, version := range []int{4, 5, ProtocolVersion + 99} {
		nc, wc := rawDial(t, addrs[0])
		defer nc.Close()
		start := wire.StartMsg{Version: version, Node: 0, Slaves: 1, Total: 1}
		if err := wc.Send(wire.Envelope{Tag: wire.TagStart, From: cluster.MasterID, Payload: start}); err != nil {
			t.Fatal(err)
		}
		rej := recvReject(t, wc)
		if rej.Code != wire.RejectVersion {
			t.Fatalf("version %d: reject code = %q, want %q (%s)", version, rej.Code, wire.RejectVersion, rej.Detail)
		}
		if !errors.Is(rejectErr(rej), ErrVersionMismatch) {
			t.Fatalf("rejectErr(%v) does not map to ErrVersionMismatch", rej)
		}
	}
}

// TestRejectPlanHashMismatch ships a valid spec under a wrong plan hash —
// the version-skew scenario where two binaries compile different programs —
// and requires the daemon to refuse before any state is exchanged. The warm
// case first runs the same program on the daemon, so the refusal is made
// from a cached plan: the cache is keyed by what the daemon's own compiler
// reads, never by the master's hash, and each session still hashes the plan
// its own compiler and its own Prepare produced.
func TestRejectPlanHashMismatch(t *testing.T) {
	for _, warm := range []bool{false, true} {
		name := map[bool]string{false: "cold", true: "warm"}[warm]
		t.Run(name, func(t *testing.T) {
			plan, params := testPlan(t, "mm", 32, 0)
			addrs, srvs := startServers(t, 1, ServerOptions{})
			cfg := dlb.Config{Plan: plan, Params: params, DLB: true, RealQuantum: 2 * time.Millisecond}
			pre, err := dlb.Prepare(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if warm {
				if _, err := RunMaster(cfg, addrs, MasterOptions{Prepared: pre}); err != nil {
					t.Fatal(err)
				}
				// The master returns at gather; the daemon's session
				// unwinds a moment later.
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
					if occupied, _ := srvs[0].occupied(); !occupied {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("daemon still occupied after its run returned")
					}
				}
			}
			nc, wc := rawDial(t, addrs[0])
			defer nc.Close()
			start := wire.StartMsg{
				Version:  ProtocolVersion,
				Node:     0,
				Slaves:   1,
				Total:    1,
				PlanHash: "0123456789abcdef", // not what the daemon will compile
				Spec:     specFromConfig(cfg, pre.Grain, 100*time.Millisecond),
			}
			if err := wc.Send(wire.Envelope{Tag: wire.TagStart, From: cluster.MasterID, Payload: start}); err != nil {
				t.Fatal(err)
			}
			rej := recvReject(t, wc)
			if rej.Code != wire.RejectPlanHash {
				t.Fatalf("reject code = %q, want %q (%s)", rej.Code, wire.RejectPlanHash, rej.Detail)
			}
			if !errors.Is(rejectErr(rej), ErrPlanHashMismatch) {
				t.Fatalf("rejectErr(%v) does not map to ErrPlanHashMismatch", rej)
			}
			wantHits := int64(0)
			if warm {
				wantHits = 1
			}
			if hits, misses := srvs[0].CompileCacheStats(); hits != wantHits || misses != 1 {
				t.Errorf("compile cache: %d hits, %d misses; want %d, 1", hits, misses, wantHits)
			}
		})
	}
}

// TestRejectDuplicateID connects to a running master claiming a node id
// that is already attached. The master must refuse: a second connection
// for a live id is either a split-brain slave or a stale reconnect, and
// reconnecting nodes re-enter as fresh joiners by design.
func TestRejectDuplicateID(t *testing.T) {
	plan, params := testPlan(t, "mm", 64, 0)
	addrs, _ := startServers(t, 4, ServerOptions{Drag: 3})
	cfg := dlb.Config{Plan: plan, Params: params, DLB: true, RealQuantum: 2 * time.Millisecond}
	masterAddr := make(chan string, 1)
	type outcome struct {
		res *dlb.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunMaster(cfg, addrs, MasterOptions{
			OnListen: func(a string) { masterAddr <- a },
		})
		done <- outcome{res, err}
	}()
	maddr := <-masterAddr

	// The listener is up before slave 0 handshakes, so retry until the
	// claim is refused as a duplicate rather than as unknown.
	deadline := time.Now().Add(15 * time.Second)
	for {
		nc, wc := rawDial(t, maddr)
		hello := wire.HelloMsg{Version: ProtocolVersion, Node: 0}
		if err := wc.Send(wire.Envelope{Tag: wire.TagHello, From: 0, Payload: hello}); err != nil {
			t.Fatal(err)
		}
		rej := recvReject(t, wc)
		nc.Close()
		if rej.Code == wire.RejectDuplicate {
			if !errors.Is(rejectErr(rej), ErrDuplicateID) {
				t.Fatalf("rejectErr(%v) does not map to ErrDuplicateID", rej)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw duplicate-id rejection (last: %s %s)", rej.Code, rej.Detail)
		}
		time.Sleep(20 * time.Millisecond)
	}

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkBitIdentical(t, out.res, seqReference(t, plan, params))
}

// TestDaemonWithoutToolchainRefusesAOT: a daemon that cannot build or open
// a plugin says so at the handshake — the master's error carries the
// toolchain's reason and the remedy — instead of accepting the run and
// dropping out of it, and stays free for the next one.
func TestDaemonWithoutToolchainRefusesAOT(t *testing.T) {
	empty := t.TempDir()
	t.Setenv("PATH", empty)
	t.Setenv("GOROOT", empty)
	t.Setenv("DLB_AOT_CACHE", t.TempDir())
	defer aot.ClearMemory() // do not leave the memoised failure behind
	plan, params := testPlan(t, "jacobi", 22, 2)
	addrs, srvs := startServers(t, 2, ServerOptions{})
	cfg := dlb.Config{Plan: plan, Params: params, DLB: true, Kernel: dlb.KernelAOT}
	_, err := RunMaster(cfg, addrs, MasterOptions{})
	if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), "-kernel kernel") {
		t.Fatalf("RunMaster: %v, want a handshake refusal naming -kernel kernel", err)
	}
	if occupied, _ := srvs[0].occupied(); occupied {
		t.Fatal("daemon is occupied by a run it refused")
	}
	cfg.Kernel = dlb.KernelVM
	res, err := RunMaster(cfg, addrs, MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, res, seqReference(t, plan, params))
}

// TestStalePeerOfAnotherRunIsRefused: node ids repeat from run to run, so a
// slave still finishing a run this daemon has left (evicted, preempted and
// re-leased) dials in under an id that is valid in the run the daemon
// serves now. The peer hello names its run; the daemon must close the
// connection instead of attaching it — nothing the stale slave sends may
// reach the live run's mailbox — and the live run finishes bit-exact.
func TestStalePeerOfAnotherRunIsRefused(t *testing.T) {
	plan, params := testPlan(t, "mm", 64, 0)
	addrs, srvs := startServers(t, 2, ServerOptions{Drag: 3})
	cfg := dlb.Config{Plan: plan, Params: params, DLB: true, RealQuantum: 2 * time.Millisecond}
	done := runFT(cfg, addrs, MasterOptions{})

	var sess *session
	for deadline := time.Now().Add(15 * time.Second); sess == nil; time.Sleep(time.Millisecond) {
		srvs[0].mu.Lock()
		sess = srvs[0].sess
		srvs[0].mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("daemon 0 never started its session")
		}
	}
	nc, wc := rawDial(t, addrs[0])
	defer nc.Close()
	hello := wire.PeerHelloMsg{From: 1, Run: "a-run-that-ended"}
	if err := wc.Send(wire.Envelope{Tag: wire.TagPeerHello, From: 1, Payload: hello}); err != nil {
		t.Fatal(err)
	}
	// The daemon may close before this lands; only its arrival would matter.
	_ = wc.Send(wire.Envelope{Tag: "stale-probe", From: 1, Payload: dlb.SliceMsg{Unit: 99}})
	_, err := wc.Recv()
	var ne net.Error
	if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("daemon kept a peer connection of another run open (read: %v)", err)
	}
	if m, ok := sess.rt.endpoint(1).TryRecv(1, "stale-probe"); ok {
		t.Fatalf("a frame from another run's slave reached this run's mailbox: %+v", m)
	}

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	checkBitIdentical(t, out.res, seqReference(t, plan, params))
}

// dropMasterLink severs a daemon's master connection at the TCP level,
// leaving the daemon itself healthy — the "network cable pulled" case, as
// opposed to the "machine died" case Close exercises.
func dropMasterLink(s *Server) bool {
	s.mu.Lock()
	sess := s.sess
	s.mu.Unlock()
	if sess == nil {
		return false
	}
	sess.rt.mu.Lock()
	l := sess.rt.links[cluster.MasterID]
	sess.rt.mu.Unlock()
	if l == nil {
		return false
	}
	l.nc.Close()
	return true
}

// runFT starts a distributed run in the background with fast failure
// detection and returns a channel with its outcome.
func runFT(cfg dlb.Config, addrs []string, opt MasterOptions) chan struct {
	res *dlb.Result
	err error
} {
	done := make(chan struct {
		res *dlb.Result
		err error
	}, 1)
	go func() {
		res, err := RunMaster(cfg, addrs, opt)
		done <- struct {
			res *dlb.Result
			err error
		}{res, err}
	}()
	return done
}

// watchRun makes the next RunMaster hand its router to the test and returns
// a wait for progress: it blocks until the master is linked to node and
// holds at least parts checkpoint parts (the slaves' count: the first
// checkpoint), so that an event injected next lands mid-run however fast
// the kernels are. A run that ends first, or never gets there, fails the
// test: it is too short for the event it was meant to carry.
func watchRun(t *testing.T) func(node int, parts int64) {
	t.Helper()
	rts := make(chan *router, 1)
	observeMaster = func(rt *router) {
		select {
		case rts <- rt: // the first run is the one watched
		default:
		}
	}
	t.Cleanup(func() { observeMaster = nil })
	return func(node int, parts int64) {
		t.Helper()
		deadline := time.After(20 * time.Second)
		var rt *router
		select {
		case rt = <-rts:
		case <-deadline:
			t.Fatal("the run never started")
		}
		for !rt.hasLink(node) || rt.ckptParts.Load() < parts {
			select {
			case <-deadline:
				peers := rt.linkedPeers()
				slices.Sort(peers)
				rt.mu.Lock()
				closed := rt.closed
				rt.mu.Unlock()
				t.Fatalf("node %d never held a live session past %d checkpoint parts (master linked to %v, router closed %v, %d parts): the run is too short to fault mid-run",
					node, parts, peers, closed, rt.ckptParts.Load())
			case <-time.After(time.Millisecond):
			}
		}
	}
}

func evictedHas(res *dlb.Result, id int) bool {
	for _, e := range res.Evicted {
		if e == id {
			return true
		}
	}
	return false
}

// TestConnLossEviction kills one slave daemon mid-run, once the run has
// committed its first checkpoint. The master gets no error from the
// transport — the connection just goes quiet — so the PR-1 lease detector
// must evict the node, roll back to the last consistent checkpoint, and
// finish bit-identical on the survivors. Drag 60 keeps ≈ 0.8 s of the run
// after that checkpoint.
func TestConnLossEviction(t *testing.T) {
	plan, params := testPlan(t, "mm", 256, 0)
	addrs, srvs := startServers(t, 4, ServerOptions{Drag: 60, Timeouts: Timeouts{Dial: 2 * time.Second}})
	cfg := dlb.Config{
		Plan:        plan,
		Params:      params,
		DLB:         true,
		RealQuantum: 2 * time.Millisecond,
		Fault:       &fault.Plan{},
		Detect:      ftDetect(),
		Ckpt:        fault.CkptPolicy{MinInterval: 150 * time.Millisecond},
	}
	live := watchRun(t)
	done := runFT(cfg, addrs, MasterOptions{})

	live(2, int64(len(addrs)))
	srvs[2].Close()

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !evictedHas(out.res, 2) {
		t.Errorf("evicted = %v, want node 2 among them", out.res.Evicted)
	}
	if out.res.Recoveries < 1 {
		t.Errorf("connection loss did not trigger a recovery")
	}
	checkBitIdentical(t, out.res, seqReference(t, plan, params))
}

// TestInjectedCrashEviction ships a fault schedule in the RunSpec: slave 1
// crashes itself mid-run, exercising the FormatSpec/ParseSpec round trip
// and the same eviction path as a real process death. The crash is timed
// (0.5 s) and a crash past the run's end is silent, so the eviction check
// is also the check that the run was live at the event; Drag 60 makes the
// run ≈ 1.4 s.
func TestInjectedCrashEviction(t *testing.T) {
	plan, params := testPlan(t, "mm", 256, 0)
	addrs, _ := startServers(t, 4, ServerOptions{Drag: 60, Timeouts: Timeouts{Dial: 2 * time.Second}})
	fp, err := fault.ParseSpec("crash:1@0.5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := dlb.Config{
		Plan:        plan,
		Params:      params,
		DLB:         true,
		RealQuantum: 2 * time.Millisecond,
		Fault:       fp,
		Detect:      ftDetect(),
		Ckpt:        fault.CkptPolicy{MinInterval: 150 * time.Millisecond},
	}
	out := <-runFT(cfg, addrs, MasterOptions{})
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !evictedHas(out.res, 1) {
		t.Errorf("evicted = %v, want node 1 among them", out.res.Evicted)
	}
	if out.res.Recoveries < 1 {
		t.Errorf("injected crash did not trigger a recovery")
	}
	checkBitIdentical(t, out.res, seqReference(t, plan, params))
}

// TestReconnectRejoin pulls the network cable between the master and one
// slave once the run has committed its first checkpoint: the master must
// evict the silent node, and the daemon — still alive behind the broken
// connection — must redial the master and re-enter the same run as an
// elastic joiner under a fresh id, so the run must outlast a lease and a
// handshake after the drop (Drag 90).
func TestReconnectRejoin(t *testing.T) {
	plan, params := testPlan(t, "mm", 256, 0)
	addrs, srvs := startServers(t, 4, ServerOptions{Drag: 90, Timeouts: Timeouts{Dial: 2 * time.Second}})
	cfg := dlb.Config{
		Plan:        plan,
		Params:      params,
		DLB:         true,
		RealQuantum: 2 * time.Millisecond,
		Fault:       &fault.Plan{},
		Detect:      ftDetect(),
		Ckpt:        fault.CkptPolicy{MinInterval: 150 * time.Millisecond},
	}
	live := watchRun(t)
	done := runFT(cfg, addrs, MasterOptions{ExtraSlots: 1})

	live(1, int64(len(addrs)))
	if !dropMasterLink(srvs[1]) {
		t.Fatal("no active session on server 1 at drop time")
	}

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !evictedHas(out.res, 1) {
		t.Errorf("evicted = %v, want node 1 among them", out.res.Evicted)
	}
	if len(out.res.Joined) == 0 {
		t.Errorf("severed daemon did not rejoin (joined = %v)", out.res.Joined)
	}
	checkBitIdentical(t, out.res, seqReference(t, plan, params))
}
