package netrun

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/dlb"
	"repro/internal/dlb/wire"
	"repro/internal/loopir"
)

// testPlan compiles a library program with the same directives the CLIs
// use.
func testPlan(t *testing.T, name string, n, iter int) (*compile.Plan, map[string]int) {
	t.Helper()
	prog := loopir.Library()[name]
	if prog == nil {
		t.Fatalf("unknown program %q", name)
	}
	plan, err := compile.Compile(prog, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int{}
	for _, prm := range prog.Params {
		if strings.Contains(prm, "iter") {
			params[prm] = iter
		} else {
			params[prm] = n
		}
	}
	return plan, params
}

// startServers spins up n in-process slave daemons on loopback and
// returns their addresses. Each daemon is a full Server — the same code
// cmd/dlbd runs — only the process boundary is missing (the multi-process
// variant lives in proc_test.go).
func startServers(t *testing.T, n int, opt ServerOptions) ([]string, []*Server) {
	t.Helper()
	addrs := make([]string, n)
	srvs := make([]*Server, n)
	for i := 0; i < n; i++ {
		srv, err := NewServer(opt)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = srv.Addr()
		srvs[i] = srv
		go srv.Serve()
		t.Cleanup(func() { srv.Close() })
	}
	return addrs, srvs
}

func seqReference(t *testing.T, plan *compile.Plan, params map[string]int) map[string]*loopir.Array {
	t.Helper()
	inst, err := loopir.NewInstance(plan.Prog, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	return inst.Arrays
}

func checkBitIdentical(t *testing.T, res *dlb.Result, ref map[string]*loopir.Array) {
	t.Helper()
	if res.Final == nil {
		t.Fatal("no final arrays")
	}
	for name, want := range ref {
		got := res.Final[name]
		if got == nil {
			t.Fatalf("array %s missing from result", name)
		}
		if d := want.MaxAbsDiff(got); d != 0 {
			t.Errorf("array %s differs from sequential reference: max |diff| = %g", name, d)
		}
	}
}

// checkGather compares a run with the sequential reference: every array bit
// for bit, except a reduction's, whose parallel sum reassociates (1e-9).
func checkGather(t *testing.T, plan *compile.Plan, res *dlb.Result, ref map[string]*loopir.Array) {
	t.Helper()
	exact := map[string]*loopir.Array{}
	for name, a := range ref {
		exact[name] = a
	}
	for _, r := range plan.Reductions {
		delete(exact, r.Array)
		if d := ref[r.Array].MaxAbsDiff(res.Final[r.Array]); d > 1e-9 {
			t.Errorf("reduction %s differs from the sequential reference by %g", r.Array, d)
		}
	}
	checkBitIdentical(t, res, exact)
}

// TestLoopbackLibrary runs every library program as loopir.Library() hands
// it out on three loopback daemons. The daemons recompile it from
// lang.Format text, so this is also the check that a program's free-form
// name ("jacobi-converge") reaches both plan hashes in one spelling.
func TestLoopbackLibrary(t *testing.T) {
	for name := range loopir.Library() {
		t.Run(name, func(t *testing.T) {
			n := 24
			if name == "spmv" {
				n = 96 // its row loop skips 32 rows at each edge
			}
			plan, params := testPlan(t, name, n, 3)
			addrs, _ := startServers(t, 3, ServerOptions{})
			cfg := dlb.Config{Plan: plan, Params: params, DLB: true, RealQuantum: 2 * time.Millisecond}
			res, err := RunMaster(cfg, addrs, MasterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			checkGather(t, plan, res, seqReference(t, plan, params))
		})
	}
}

func TestLoopbackMM(t *testing.T) {
	plan, params := testPlan(t, "mm", 48, 0)
	addrs, _ := startServers(t, 4, ServerOptions{})
	cfg := dlb.Config{
		Plan:        plan,
		Params:      params,
		DLB:         true,
		RealQuantum: 2 * time.Millisecond,
	}
	res, err := RunMaster(cfg, addrs, MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, res, seqReference(t, plan, params))
	if res.Phases < 1 {
		t.Errorf("expected at least one balancing phase, got %d", res.Phases)
	}
}

func TestLoopbackSOR(t *testing.T) {
	plan, params := testPlan(t, "sor", 64, 6)
	addrs, _ := startServers(t, 4, ServerOptions{})
	cfg := dlb.Config{
		Plan:        plan,
		Params:      params,
		DLB:         true,
		RealQuantum: 2 * time.Millisecond,
	}
	res, err := RunMaster(cfg, addrs, MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, res, seqReference(t, plan, params))
}

// TestLoopbackAOT runs jacobi on native kernels over loopback daemons: each
// daemon loads the plugin while it handshakes and its slave then runs on
// those kernels — every owned-loop unit must be dispatched natively, none on
// the VM — bit-identical to the sequential reference.
func TestLoopbackAOT(t *testing.T) {
	plan, params := testPlan(t, "jacobi", 40, 3)
	addrs, _ := startServers(t, 2, ServerOptions{})
	cfg := dlb.Config{Plan: plan, Params: params, DLB: true, Kernel: dlb.KernelAOT}
	res, err := RunMaster(cfg, addrs, MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, res, seqReference(t, plan, params))
	c := res.Counters
	if c.Get("aot_units") == 0 || c.Get("kernel_units") != 0 {
		t.Errorf("aot run over TCP dispatched aot=%d kernel=%d units", c.Get("aot_units"), c.Get("kernel_units"))
	}
}

// TestLoopbackHierGroups checks that a grouped (two-level) run is refused
// over TCP with dlb.ErrGroupsWithFaults: every transport run is
// fault-tolerant, and the relay would hide members from the lease
// detector. With or without a cached instantiation the refusal comes
// before any daemon is dialed, so no session or lease outlives it: the same
// daemons then complete a flat run bit-identical to the sequential
// reference.
func TestLoopbackHierGroups(t *testing.T) {
	plan, params := testPlan(t, "mm", 48, 0)
	var sessions atomic.Int32
	addrs, _ := startServers(t, 4, ServerOptions{Logf: func(format string, _ ...interface{}) {
		if strings.HasPrefix(format, "node %d: run started") {
			sessions.Add(1)
		}
	}})
	cfg := dlb.Config{
		Plan:        plan,
		Params:      params,
		DLB:         true,
		Groups:      2,
		RealQuantum: 2 * time.Millisecond,
	}
	if _, err := RunMaster(cfg, addrs, MasterOptions{}); !errors.Is(err, dlb.ErrGroupsWithFaults) {
		t.Fatalf("grouped TCP run: err = %v, want dlb.ErrGroupsWithFaults", err)
	}
	pre, err := dlb.Prepare(cfg, len(addrs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunMaster(cfg, addrs, MasterOptions{Prepared: pre}); !errors.Is(err, dlb.ErrGroupsWithFaults) {
		t.Fatalf("grouped TCP run with a cached instantiation: err = %v, want dlb.ErrGroupsWithFaults", err)
	}
	if n := sessions.Load(); n != 0 {
		t.Fatalf("refused runs opened %d daemon sessions", n)
	}
	cfg.Groups = 1
	res, err := RunMaster(cfg, addrs, MasterOptions{Prepared: pre})
	if err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, res, seqReference(t, plan, params))
}

// TestAbortFramePoisonsPeerMailbox checks the TCP half of the fail-fast
// path: a process that died of a real bug sends an abort frame on its
// links, and the peer's reader turns it into the mailbox poison — so the
// peer's blocked receive unwinds with a *dlb.PeerFailure naming the dead
// node instead of waiting for a lease to expire.
func TestAbortFramePoisonsPeerMailbox(t *testing.T) {
	a, b := net.Pipe()
	slave := newRouter(1, "", Timeouts{}, false)
	master := newRouter(cluster.MasterID, "", Timeouts{}, false)
	slave.attach(cluster.MasterID, a, wire.NewConn(a), false)
	master.attach(1, b, wire.NewConn(b), false)
	defer master.close()
	defer slave.close()

	slave.send(cluster.MasterID, "status", dlb.StatusMsg{Phase: 7})
	slave.abort("boom")

	ep := master.endpoint(1)
	if m := ep.Recv(1, "status"); m.Data.(dlb.StatusMsg).Phase != 7 {
		t.Fatalf("frame sent before the abort was lost: %+v", m)
	}
	defer func() {
		pf, ok := recover().(*dlb.PeerFailure)
		if !ok || pf.Peer != 1 || pf.Reason != "boom" {
			t.Fatalf("receive unwound with %v, want a PeerFailure{1, boom}", pf)
		}
	}()
	ep.Recv(cluster.AnySource, "")
	t.Fatal("receive on a poisoned mailbox returned")
}
