package dlb

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/loopir"
)

// RunReal executes the plan for real: master and slaves are goroutines
// (one per core, scheduled by the Go runtime), a message is a put into the
// receiver's mailbox, computation takes actual wall-clock time, and rates
// are measured with real timers. It is the same master/slave code that runs
// on the simulated cluster — only the Endpoint differs — so the simulation
// results transfer: what was verified deterministically there runs here on
// real parallel hardware.
//
// cfg.RealDrag can slow individual slaves (emulating a slower or loaded
// workstation) so the load balancer's reaction is observable in wall-clock
// runs. Timing-dependent behavior (how many phases, what moves) is
// inherently nondeterministic here; data results are still exact.
func RunReal(cfg Config, slaves int) (*Result, error) {
	l, err := assemble(cfg, wholeRun, slaves, 0)
	if err != nil {
		return nil, err
	}
	// The wall-clock instantiation (§4.4 startup measurement, hook cost
	// rebased on measured kernel speed) shared with the TCP transport.
	pre, err := Prepare(*l.cfg, slaves)
	if err != nil {
		return nil, err
	}
	if err := l.adopt(pre); err != nil {
		return nil, err
	}
	eng := l.engine(cluster.Config{
		Slaves:  slaves,
		Quantum: l.cfg.RealQuantum,
		// Cost-model prior only; transfers are in-process memory copies, so
		// measure that plane the same way the TCP transport measures its
		// codec.
		Bandwidth:    memCopyBandwidth(),
		LinkLatency:  10 * time.Microsecond,
		SendOverhead: time.Microsecond,
	})

	net := newLocalNet(l.total)
	var (
		wg     sync.WaitGroup
		failMu sync.Mutex
		failed error
	)
	spawn := func(name string, id int, fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				p := recover()
				if p == nil || isFaultExit(p) {
					return // done, or an injected crash or eviction: die silently
				}
				if _, ok := p.(*PeerFailure); ok {
					return // unwound by the poison below; the cause is already recorded
				}
				failMu.Lock()
				if failed == nil {
					failed = fmt.Errorf("dlb: %s panicked: %v", name, p)
				}
				failMu.Unlock()
				// Poison every mailbox so peers waiting on this process fail
				// the run instead of hanging (or evicting past the bug).
				net.fail(&PeerFailure{Peer: id, Reason: fmt.Sprint(p)})
			}()
			fn()
		}()
	}
	spawn("master", cluster.MasterID, func() { eng.runOn(net.endpoint(cluster.MasterID, 1)) })
	eps := make([]*WallEndpoint, l.total)
	for id := range eps {
		id, s := id, l.slave(id)
		drag := 1.0
		if id < len(l.cfg.RealDrag) {
			drag = l.cfg.RealDrag[id]
		}
		eps[id] = net.endpoint(id, drag)
		// Wall-clock failure injection; no fault log here (the simulator
		// owns the deterministic trace).
		spawn(fmt.Sprintf("slave%d", id), id, func() { s.runOn(newFaultEP(eps[id], id, l.inj, nil)) })
	}
	wg.Wait()
	if failed != nil {
		return nil, failed
	}
	for _, ep := range eps {
		l.res.Usage = append(l.res.Usage, cluster.Usage{BusyElapsed: ep.Busy(), AppCPU: ep.Busy()})
	}
	return l.finish(eng, time.Since(net.start))
}

// measureRealRow times one pipelined strip row of a single slave's share
// by running the sequential program once on a scratch instance (through
// the same kernel-first path the slaves execute, so strip blocks are sized
// to kernel speed, not interpreter speed) and scaling by iteration counts.
func measureRealRow(cfg *Config, probe *compile.Exec, slaves int) (time.Duration, error) {
	scratch, err := loopir.NewInstance(cfg.Plan.Prog, cfg.Params)
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
	lo, hi := probe.InitialLo, probe.InitialHi
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
