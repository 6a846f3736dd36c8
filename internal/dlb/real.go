package dlb

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/aot"
	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/fault"
	"repro/internal/loopir"
)

// RunReal executes the plan for real: master and slaves are goroutines
// (one per core, scheduled by the Go runtime), messages travel over
// channels, computation takes actual wall-clock time, and rates are
// measured with real timers. It is the same master/slave code that runs on
// the simulated cluster — only the Endpoint differs — so the simulation
// results transfer: what was verified deterministically there runs here on
// real parallel hardware.
//
// cfg.RealDrag can slow individual slaves (emulating a slower or loaded
// workstation) so the load balancer's reaction is observable in wall-clock
// runs. Timing-dependent behavior (how many phases, what moves) is
// inherently nondeterministic here; data results are still exact.
func RunReal(cfg Config, slaves int) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Preempt != nil || cfg.Resume != nil {
		return nil, fmt.Errorf("dlb: preemption and resume are transport-driven features (RunMasterOn)")
	}
	// Prepare is the wall-clock instantiation (§4.4 startup measurement, hook
	// cost rebased on measured kernel speed) shared with the TCP transport.
	pre, err := Prepare(cfg, slaves)
	if err != nil {
		return nil, err
	}
	cfg.CompileOpts = pre.Opts
	exec, grain := pre.Exec, pre.Grain
	masterInst, err := loopir.NewInstance(cfg.Plan.Prog, cfg.Params)
	if err != nil {
		return nil, err
	}

	tier, err := cfg.KernelTier()
	if err != nil {
		return nil, err
	}
	var bundle *aotBundle
	var aotInfo *aot.BuildInfo
	if tier == KernelAOT {
		if bundle, err = buildAOT(cfg.Plan, cfg.Params); err != nil {
			return nil, err
		}
		aotInfo = &bundle.prog.Info
	}

	part, err := cfg.groupPartition(slaves)
	if err != nil {
		return nil, err
	}

	ftMode := cfg.Fault != nil
	var joins []time.Duration
	total := slaves
	if ftMode {
		if !cfg.DLB {
			return nil, fmt.Errorf("dlb: fault tolerance requires DLB (hooks are the heartbeat and checkpoint substrate)")
		}
		if err := cfg.Fault.Validate(); err != nil {
			return nil, err
		}
		joins = cfg.Fault.Joins()
		total = slaves + len(joins)
	}

	net := &realNet{
		boxes: make([]chan cluster.Msg, total+1),
		start: time.Now(),
	}
	for i := range net.boxes {
		net.boxes[i] = make(chan cluster.Msg, 4096)
	}

	realCC := cluster.Config{
		Slaves:  slaves,
		Quantum: cfg.RealQuantum,
		// Cost-model prior only; transfers are in-process memory copies, so
		// measure that plane the same way the TCP transport measures its
		// codec.
		Bandwidth:    memCopyBandwidth(),
		LinkLatency:  10 * time.Microsecond,
		SendOverhead: time.Microsecond,
	}
	r := &Result{Exec: exec, Grain: grain, AotInfo: aotInfo}
	var pol FaultPolicy = noFaultPolicy{}
	var flog *fault.Log
	if ftMode {
		flog = &fault.Log{} // written by the master goroutine only
		r.FaultLog = flog
		pol = &ftPolicy{log: flog}
	}
	eng := &engine{
		cfg:     &cfg,
		cc:      realCC,
		initial: slaves,
		total:   total,
		exec:    exec,
		inst:    masterInst,
		res:     r,
		pol:     pol,
		part:    part,
		relay:   part != nil && !ftMode,
	}

	errs := make(chan error, slaves+1)
	var wg sync.WaitGroup
	spawn := func(name string, id int, fn func(Endpoint)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if isFaultExit(p) {
						return // an injected crash or eviction: die silently
					}
					errs <- fmt.Errorf("dlb: %s panicked: %v", name, p)
					// Unblock peers waiting on this process so the run
					// fails instead of hanging.
					for _, box := range net.boxes {
						select {
						case box <- cluster.Msg{Tag: abortTag}:
						default:
						}
					}
				}
			}()
			drag := 1.0
			if id >= 0 && id < len(cfg.RealDrag) && cfg.RealDrag[id] > 1 {
				drag = cfg.RealDrag[id]
			}
			fn(&realEndpoint{net: net, id: id, drag: drag})
		}()
	}
	endpoints := make([]*realEndpoint, total)
	var inj *fault.Injector
	var hbEvery time.Duration
	if ftMode {
		inj = fault.NewInjector(cfg.Fault)
		hbEvery = fault.NewDetector(cfg.Detect, 1).Config().HeartbeatEvery
	}
	spawn("master", cluster.MasterID, eng.runOn)
	for i := 0; i < total; i++ {
		s := &slave{id: i, slaves: slaves, cfg: &cfg, exec: exec, grain: grain,
			tier: tier, aot: bundle,
			fault: slaveFaultFor(ftMode), hbEvery: hbEvery}
		if eng.relay {
			s.part = part
		}
		if ftMode && i >= slaves {
			s.joiner = true
			s.joinAt = joins[i-slaves]
		}
		i := i
		spawn(fmt.Sprintf("slave%d", i), i, func(ep Endpoint) {
			endpoints[i] = ep.(*realEndpoint)
			// Wall-clock failure injection; the log stays nil here (the sim
			// owns the deterministic trace).
			s.runOn(newFaultEP(ep, i, inj, nil))
		})
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	r.Elapsed = time.Since(net.start)
	for i := 0; i < total; i++ {
		u := cluster.Usage{}
		if endpoints[i] != nil {
			u.BusyElapsed = endpoints[i].busy
			u.AppCPU = endpoints[i].busy
		}
		r.Usage = append(r.Usage, u)
	}
	if eng.err != nil {
		return nil, eng.err
	}
	r.Final = eng.final
	r.ComputeElapsed = eng.computeEnd - eng.computeStart
	return r, nil
}

// measureRealRow times one pipelined strip row of a single slave's share
// by running the sequential program once on a scratch instance (through
// the same kernel-first path the slaves execute, so strip blocks are sized
// to kernel speed, not interpreter speed) and scaling by iteration counts.
func measureRealRow(plan *compile.Plan, params map[string]int, probe *compile.Exec, slaves int) (time.Duration, error) {
	scratch, err := loopir.NewInstance(plan.Prog, params)
	if err != nil {
		return 0, err
	}
	// The cost of one strip row ≈ per-unit flops x (active units / slaves):
	// run one full sweep of the program body and divide by the total rows.
	t0 := time.Now()
	if err := scratch.Run(); err != nil {
		return 0, err
	}
	total := time.Since(t0)
	totalUnitExecs := probe.TotalFlops / probe.FlopsPerUnit
	if totalUnitExecs < 1 {
		totalUnitExecs = 1
	}
	perUnit := time.Duration(float64(total) / totalUnitExecs)
	lo, hi := probe.InitialActive()
	units := hi - lo
	if units < 1 {
		units = 1
	}
	row := perUnit * time.Duration((units+slaves-1)/slaves)
	if row <= 0 {
		row = time.Microsecond
	}
	return row, nil
}

// realNet carries messages between goroutine endpoints. Box index slaves is
// the master.
type realNet struct {
	boxes []chan cluster.Msg
	start time.Time
}

func (n *realNet) box(id int) chan cluster.Msg {
	if id == cluster.MasterID {
		return n.boxes[len(n.boxes)-1]
	}
	return n.boxes[id]
}

// realEndpoint implements Endpoint with wall-clock time and channels.
type realEndpoint struct {
	net     *realNet
	id      int
	drag    float64 // >= 1: slow this slave down (emulated slower machine)
	pending []cluster.Msg
	busy    time.Duration
}

func (e *realEndpoint) Charge(time.Duration) {}

func (e *realEndpoint) Timed(fn func()) {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	if e.drag > 1 {
		extra := time.Duration((e.drag - 1) * float64(d))
		time.Sleep(extra)
		d += extra
	}
	e.busy += d
}

func (e *realEndpoint) Send(to int, tag string, bytes int, data interface{}) {
	e.net.box(to) <- cluster.Msg{From: e.id, Tag: tag, Bytes: bytes, Data: data}
}

func matchMsg(m cluster.Msg, from int, tag string) bool {
	if from != cluster.AnySource && m.From != from {
		return false
	}
	return tag == "" || m.Tag == tag
}

// abortTag is broadcast when a process dies so peers blocked in Recv fail
// fast instead of deadlocking.
const abortTag = "__abort"

func (e *realEndpoint) Recv(from int, tag string) cluster.Msg {
	for i, m := range e.pending {
		if matchMsg(m, from, tag) {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			return m
		}
	}
	for {
		m := <-e.net.box(e.id)
		if m.Tag == abortTag {
			panic("peer process failed")
		}
		if matchMsg(m, from, tag) {
			return m
		}
		e.pending = append(e.pending, m)
	}
}

func (e *realEndpoint) TryRecv(from int, tag string) (cluster.Msg, bool) {
	for i, m := range e.pending {
		if matchMsg(m, from, tag) {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			return m, true
		}
	}
	for {
		select {
		case m := <-e.net.box(e.id):
			if matchMsg(m, from, tag) {
				return m, true
			}
			e.pending = append(e.pending, m)
		default:
			return cluster.Msg{}, false
		}
	}
}

func (e *realEndpoint) Busy() time.Duration { return e.busy }
func (e *realEndpoint) Now() time.Duration  { return time.Since(e.net.start) }

func (e *realEndpoint) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}
