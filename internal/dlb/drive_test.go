package dlb

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/fault"
	"repro/internal/loopir"
	"repro/internal/vtime"
)

// transport drives RunMasterOn and RunSlaveOn the way internal/netrun does
// — one process per goroutine, the always-fault-tolerant policy, joiner
// slots beyond the initial membership — but over in-process mailboxes, so
// the transport drivers are covered without sockets.
type transport struct {
	cfg     Config
	initial int
	extra   int // joiner slots; their processes volunteer at start
	drag    float64
	// wrap, when set, decorates a slave's endpoint (the seam tests use to
	// plant a bug in one process).
	wrap func(id int, ep Endpoint) Endpoint
}

var errMasterGone = errors.New("test transport: master returned")

// run executes one run and returns the master's outcome plus each slave
// process's. It returns only after every goroutine it started has exited.
func (tr transport) run(t *testing.T, pre *Prepared) (*Result, error, []error) {
	t.Helper()
	total := tr.initial + tr.extra
	net := newLocalNet(total)
	slaveErrs := make([]error, total)
	var wg sync.WaitGroup
	for id := 0; id < total; id++ {
		id := id
		var ep Endpoint = net.endpoint(id, tr.drag)
		if tr.wrap != nil {
			ep = tr.wrap(id, ep)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				switch p := recover().(type) {
				case nil:
				case error: // the mailbox's poison
					slaveErrs[id] = p
				default:
					// A real bug: tell every peer, as netrun's abort frame does.
					net.fail(&PeerFailure{Peer: id, Reason: fmt.Sprint(p)})
					slaveErrs[id] = fmt.Errorf("slave %d panicked: %v", id, p)
				}
			}()
			slaveErrs[id] = RunSlaveOn(ep, tr.cfg, id, tr.initial, pre)
		}()
	}
	cc := cluster.Config{
		Slaves:       tr.initial,
		Quantum:      tr.cfg.RealQuantum,
		Bandwidth:    memCopyBandwidth(),
		LinkLatency:  10 * time.Microsecond,
		SendOverhead: time.Microsecond,
	}
	res, err := RunMasterOn(net.endpoint(cluster.MasterID, 1), tr.cfg, cc, tr.initial, total, pre)
	// The master is gone: whoever still waits on it sees a lost link.
	net.fail(errMasterGone)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("slave goroutines still running 30 s after the master returned")
	}
	return res, err, slaveErrs
}

// transportConfig is a fast-detection fault config: tight leases so
// evictions are prompt, a short checkpoint interval so forced cuts never
// wait on the throttle.
func transportConfig(plan *compile.Plan, params map[string]int) Config {
	return Config{
		Plan: plan, Params: params, DLB: true,
		RealQuantum: 2 * time.Millisecond,
		Detect:      fault.DetectorConfig{MinLease: 500 * time.Millisecond, HeartbeatEvery: 50 * time.Millisecond},
		Ckpt:        fault.CkptPolicy{MinInterval: 50 * time.Millisecond},
	}
}

// dragFor picks the drag that stretches each of the slaves' share of the
// program to about target wall time. The balancer contacts the master every
// 500 ms at most, so a test that needs a few rounds (a checkpoint cut, a
// joiner's admission) needs a run a few periods long; calibrating against a
// timed sequential run gets that on a fast host, a slow one and under the
// race detector alike, and drag is sleep, not CPU.
func dragFor(t *testing.T, plan *compile.Plan, params map[string]int, slaves int, target time.Duration) float64 {
	t.Helper()
	ref, err := loopir.NewInstance(plan.Prog, params)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	share := time.Since(t0) / time.Duration(slaves)
	if share <= 0 {
		share = time.Microsecond
	}
	return float64(target) / float64(share)
}

func mustPrepare(t *testing.T, cfg Config, slaves int) *Prepared {
	t.Helper()
	pre, err := Prepare(cfg, slaves)
	if err != nil {
		t.Fatal(err)
	}
	return pre
}

// TestTransportBitExact runs MM, pipelined SOR and LU through the transport
// drivers and demands the sequential interpreter's arrays bit for bit.
func TestTransportBitExact(t *testing.T) {
	cases := []struct {
		prog   string
		params map[string]int
		slaves int
	}{
		{"mm", map[string]int{"n": 64}, 4},
		{"sor", map[string]int{"n": 64, "maxiter": 6}, 3},
		{"lu", map[string]int{"n": 48}, 3},
	}
	for _, tc := range cases {
		plan := planFor(t, tc.prog)
		cfg := transportConfig(plan, tc.params)
		res, err, slaveErrs := transport{cfg: cfg, initial: tc.slaves}.run(t, mustPrepare(t, cfg, tc.slaves))
		if err != nil {
			t.Fatalf("%s: %v", tc.prog, err)
		}
		for id, serr := range slaveErrs {
			if serr != nil {
				t.Errorf("%s: slave %d: %v", tc.prog, id, serr)
			}
		}
		verifyRealPlan(t, res, plan, tc.params)
		if res.FaultLog == nil {
			t.Errorf("%s: transport run carries no fault log (not fault-tolerant?)", tc.prog)
		}
	}
}

// TestTransportCrashAndJoin injects a crash on slave 1 and volunteers a
// joiner: the lease detector must evict the dead process, the joiner must
// be admitted into a recovery epoch, and the gathered arrays stay exact.
func TestTransportCrashAndJoin(t *testing.T) {
	plan := planFor(t, "mm")
	// n=256 keeps the calibrated drag near 30. At n=128 it is near 250, and
	// since drag is sleep in proportion to measured compute, a 2 ms stall of
	// one live slave on a busy host became a silence longer than the lease:
	// "evicted = [0 1], want [1]", 2 runs in 8 while the host was noisy.
	params := map[string]int{"n": 256}
	cfg := transportConfig(plan, params)
	cfg.Fault = (&fault.Plan{}).CrashAt(1, 0)
	drag := dragFor(t, plan, params, 4, 2*time.Second)
	res, err, slaveErrs := transport{cfg: cfg, initial: 4, extra: 1, drag: drag}.run(t, mustPrepare(t, cfg, 4))
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, res, plan, params)
	if len(res.Evicted) != 1 || res.Evicted[0] != 1 {
		t.Errorf("evicted = %v, want [1]", res.Evicted)
	}
	if len(res.Joined) != 1 || res.Joined[0] != 4 {
		t.Errorf("joined = %v, want [4]", res.Joined)
	}
	if !errors.Is(slaveErrs[1], ErrInjectedCrash) {
		t.Errorf("slave 1 returned %v, want ErrInjectedCrash", slaveErrs[1])
	}
	for _, id := range []int{0, 2, 3, 4} {
		if slaveErrs[id] != nil {
			t.Errorf("slave %d: %v", id, slaveErrs[id])
		}
	}
}

// TestTransportPreemptResume stops a run at its first consumable round and
// continues it from Result.Checkpoint under a fresh master: the resumed
// result must equal the uninterrupted one bit for bit.
func TestTransportPreemptResume(t *testing.T) {
	plan := planFor(t, "mm")
	params := map[string]int{"n": 128}
	cfg := transportConfig(plan, params)
	pre := mustPrepare(t, cfg, 4)
	tr := transport{cfg: cfg, initial: 4, drag: dragFor(t, plan, params, 4, 1500*time.Millisecond)}

	uncut, err, _ := tr.run(t, pre)
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, uncut, plan, params)

	tr.cfg.Preempt = &PreemptControl{}
	tr.cfg.Preempt.Request()
	stopped, err, slaveErrs := tr.run(t, pre)
	if !errors.Is(err, ErrPreempted) {
		t.Fatalf("preempted run: err = %v, want ErrPreempted", err)
	}
	if stopped == nil || stopped.Checkpoint == nil {
		t.Fatal("preempted run returned no checkpoint")
	}
	for id, serr := range slaveErrs {
		if !errors.Is(serr, ErrEvicted) {
			t.Errorf("slave %d of the preempted run returned %v, want ErrEvicted", id, serr)
		}
	}

	tr.cfg.Preempt = nil
	tr.cfg.Resume = stopped.Checkpoint
	resumed, err, _ := tr.run(t, pre)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Counters["resumes"] != 1 {
		t.Errorf("resumes counter = %d, want 1", resumed.Counters["resumes"])
	}
	for name, want := range uncut.Final {
		if d := want.MaxAbsDiff(resumed.Final[name]); d != 0 {
			t.Errorf("resumed vs uninterrupted: array %q differs by %g", name, d)
		}
	}
}

// bugEP panics with a non-fault value on its nth timed computation.
type bugEP struct {
	Endpoint
	after int
}

func (e *bugEP) Timed(fn func()) {
	if e.after--; e.after < 0 {
		panic("boom: planted bug")
	}
	e.Endpoint.Timed(fn)
}

// TestTransportSlaveBugFailsRun plants a genuine bug in slave 2: the master
// must return an error naming it — not hang on it, and not let the lease
// detector evict it and recompute past the bug.
func TestTransportSlaveBugFailsRun(t *testing.T) {
	plan := planFor(t, "mm")
	params := map[string]int{"n": 96}
	cfg := transportConfig(plan, params)
	tr := transport{cfg: cfg, initial: 4, wrap: func(id int, ep Endpoint) Endpoint {
		if id == 2 {
			return &bugEP{Endpoint: ep, after: 3}
		}
		return ep
	}}
	res, err, _ := tr.run(t, mustPrepare(t, cfg, 4))
	if err == nil {
		t.Fatalf("run with a panicking slave succeeded (evicted %v)", res.Evicted)
	}
	if !strings.Contains(err.Error(), "slave 2") || !strings.Contains(err.Error(), "planted bug") {
		t.Errorf("master error does not name the failed slave and its reason: %v", err)
	}
}

// buggyConfig is mm with an owner block appended whose body reads past an
// array; only the owner of unit 0 executes it.
func buggyConfig(t *testing.T) Config {
	plan := *planFor(t, "mm")
	bad := &compile.OwnerBlock{
		Index: loopir.Ic(0),
		Body: []loopir.Stmt{loopir.Set(loopir.Fref("c", loopir.Ic(0), loopir.Ic(0)),
			loopir.Fref("c", loopir.Ic(1<<20), loopir.Ic(0)))},
	}
	plan.Steps = append(append([]compile.Step(nil), plan.Steps...), bad)
	return Config{Plan: &plan, Params: map[string]int{"n": 48}, DLB: true, Kernel: KernelInterp}
}

// TestSimSlaveBugFailsRun is the same contract in the simulator: the bug is
// Run's error, naming the slave and carrying its stack, and the peers left
// blocked on the dead process are unwound, not leaked.
func TestSimSlaveBugFailsRun(t *testing.T) {
	base := runtime.NumGoroutine()
	_, err := Run(buggyConfig(t), cluster.Config{Slaves: 3})
	var pp *vtime.ProcPanic
	if !errors.As(err, &pp) || !strings.HasPrefix(err.Error(), "dlb: slave0 panicked: ") {
		t.Fatalf("err = %v, want one naming slave0's panic", err)
	}
	if !strings.Contains(string(pp.Stack), "execOwnerBlock") {
		t.Errorf("stack does not reach the bug:\n%s", pp.Stack)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Run, %d before", n, base)
	}
}

// TestRealSlaveBugFailsRun is the same contract on RunReal: a slave
// goroutine that panics with a non-fault value fails the run with an error
// naming it, and RunReal returns (it waits for every goroutine it started)
// instead of leaving peers blocked on the dead process. The bug is an owner
// block whose body reads past an array, placed where only the owner of unit
// 0 executes it.
func TestRealSlaveBugFailsRun(t *testing.T) {
	for _, ft := range []bool{false, true} {
		cfg := buggyConfig(t)
		if ft {
			cfg.Fault = &fault.Plan{}
		}
		done := make(chan error, 1)
		go func() {
			_, err := RunReal(cfg, 3)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "slave0 panicked") {
				t.Errorf("fault policy %v: err = %v, want one naming slave0's panic", ft, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("fault policy %v: RunReal hung on a panicked slave", ft)
		}
	}
}

// TestRecvFTWakesOnArrival pins the early-wake Sleep on the endpoints a
// fault-plan RunReal gives its slaves: a slave blocked in the fault-tolerant
// receive is parked in a poll-interval Sleep, and a message must end that
// Sleep at once instead of waiting the interval out.
func TestRecvFTWakesOnArrival(t *testing.T) {
	net := newLocalNet(2)
	s := &slave{id: 0, ep: net.endpoint(0, 1), fault: ftSlaveFault{}, hbEvery: time.Hour}
	peer := net.endpoint(1, 1)
	poll := s.ep.PollInterval()
	const rounds = 20
	var worst time.Duration
	for i := 0; i < rounds; i++ {
		got := make(chan time.Time, 1)
		go func() {
			ftSlaveFault{}.recvFT(s, 1, "x")
			got <- time.Now()
		}()
		time.Sleep(poll / 4) // let the receiver find nothing and park
		sent := time.Now()
		peer.Send(0, "x", nil)
		if d := (<-got).Sub(sent); d > worst {
			worst = d
		}
	}
	// A Sleep that ignored arrivals would return a uniform 0..poll after the
	// send; twenty draws all under a quarter of it do not happen by chance.
	if worst > poll/4 {
		t.Errorf("blocked recvFT returned up to %v after the send; want well under the %v poll interval", worst, poll)
	}
}

// TestBadConfigIsATypedErrorEverywhere checks that every entry point
// refuses an unrunnable Config with an error before anything is spawned —
// no panic inside a slave, no started session.
func TestBadConfigIsATypedErrorEverywhere(t *testing.T) {
	plan := planFor(t, "mm")
	good := Config{Plan: plan, Params: map[string]int{"n": 16}, DLB: true}
	pre := mustPrepare(t, good, 2)
	bad := map[string]func(*Config){
		"bad kernel":         func(c *Config) { c.Kernel = "jit" },
		"bad cost model":     func(c *Config) { c.CostModel = "oracle" },
		"bad overlap":        func(c *Config) { c.Overlap = "maybe" },
		"nil plan":           func(c *Config) { c.Plan = nil },
		"faults without DLB": func(c *Config) { c.Fault = &fault.Plan{}; c.DLB = false },
	}
	entries := map[string]func(Config) error{
		"Run": func(c Config) error {
			_, err := Run(c, cluster.Config{Slaves: 2})
			return err
		},
		"RunReal": func(c Config) error {
			_, err := RunReal(c, 2)
			return err
		},
		"RunMasterOn": func(c Config) error {
			_, err := RunMasterOn(newLocalNet(2).endpoint(cluster.MasterID, 1), c, cluster.Config{Slaves: 2}, 2, 2, pre)
			return err
		},
		"RunSlaveOn": func(c Config) error {
			return RunSlaveOn(newLocalNet(2).endpoint(0, 1), c, 0, 2, pre)
		},
		"Prepare": func(c Config) error {
			_, err := Prepare(c, 2)
			return err
		},
	}
	for what, breakIt := range bad {
		for entry, call := range entries {
			cfg := good
			breakIt(&cfg)
			errc := make(chan error, 1)
			go func() {
				defer func() {
					if p := recover(); p != nil {
						errc <- fmt.Errorf("PANIC: %v", p)
					}
				}()
				errc <- call(cfg)
			}()
			select {
			case err := <-errc:
				if err == nil || strings.HasPrefix(err.Error(), "PANIC") || !strings.HasPrefix(err.Error(), "dlb: ") {
					t.Errorf("%s, %s: got %v, want a dlb error", entry, what, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s, %s: no answer in 10 s (something was spawned and is waiting)", entry, what)
			}
		}
	}
}
