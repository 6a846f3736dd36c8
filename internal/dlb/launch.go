package dlb

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hier"
	"repro/internal/loopir"
)

// role says which processes of the run live behind an assembly.
type role int

const (
	// wholeRun is Run and RunReal: the master and every slave in this
	// process, fault-tolerant only under a fault plan.
	wholeRun role = iota
	// masterOnly and slaveOnly are the sides of a transport-driven run
	// (RunMasterOn, RunSlaveOn): always fault-tolerant — the lease detector
	// is what turns a dead link into an eviction instead of a deadlock —
	// with joiner admission owned by the transport, not the fault plan.
	masterOnly
	slaveOnly
)

// launch is the one assembly of a run: the validated configuration and
// what every entry point derives from it — membership, group partition,
// tier and native kernels, fault injection and policy, the master's
// instance and Result. Run, RunReal, RunMasterOn and RunSlaveOn assemble,
// create endpoints, spawn what engine and slave hand out, and finish.
type launch struct {
	cfg *Config
	modes
	initial int // starting membership
	total   int // slots including joiners not yet admitted
	ft      bool
	joins   []time.Duration // scheduled join times of slots initial..total-1 (wholeRun)

	exec  *compile.Exec
	grain int

	// part is the group partition of a grouped run (nil: flat). Members
	// report to their group leader and leaders relay to the master.
	part *hier.Partition

	// Master side.
	inst *loopir.Instance
	res  *Result
	pol  FaultPolicy

	// Slave side. adopt resolves the tier and supplies bundle on the aot
	// tier.
	bundle  *aotBundle
	sfault  slaveFault
	inj     *fault.Injector
	hbEvery time.Duration
}

// assemble validates cfg for the given role and resolves everything that
// does not depend on the instantiation; adopt supplies that. total is the
// transport's slot count (ignored for wholeRun, whose joiner slots are the
// fault plan's scheduled joins).
func assemble(cfg Config, r role, initial, total int) (*launch, error) {
	cfg = cfg.withDefaults()
	transport := r != wholeRun
	switch {
	case initial < 1:
		return nil, fmt.Errorf("dlb: need at least one slave")
	case transport && !cfg.DLB:
		return nil, fmt.Errorf("dlb: transport-driven runs require DLB (hooks are the heartbeat and checkpoint substrate)")
	case !transport && (cfg.Preempt != nil || cfg.Resume != nil):
		return nil, fmt.Errorf("dlb: preemption and resume are transport-driven features (RunMasterOn)")
	case cfg.Resume != nil && cfg.Resume.Slaves != initial:
		return nil, fmt.Errorf("dlb: resume checkpoint was cut with %d slaves, run has %d", cfg.Resume.Slaves, initial)
	}
	if transport && cfg.Fault == nil {
		// Detection, checkpointing and elastic join stay armed without
		// injecting anything.
		cfg.Fault = &fault.Plan{}
	}
	m, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	l := &launch{cfg: &cfg, modes: m, initial: initial, total: initial, ft: cfg.Fault != nil}
	switch {
	case transport && total > initial:
		l.total = total
	case !transport && l.ft:
		// Joiner processes occupy slots beyond the initial slaves; they idle
		// until their join time and are folded in by recovery.
		l.joins = cfg.Fault.Joins()
		l.total = initial + len(l.joins)
	}

	if cfg.Groups > 1 {
		if !cfg.DLB {
			return nil, fmt.Errorf("dlb: hierarchical groups require DLB (leaders aggregate the balancing contacts)")
		}
		if l.part, err = hier.Split(initial, cfg.Groups); err != nil {
			return nil, err
		}
	}
	if r != slaveOnly {
		// Master instance: initial data source and final destination.
		if l.inst, err = loopir.NewInstance(cfg.Plan.Prog, cfg.Params); err != nil {
			return nil, err
		}
		l.res = &Result{}
		l.pol = noFaultPolicy{}
		if l.ft {
			// Written by the master and, on the simulator, by the slaves'
			// fault endpoints (injected crashes and stalls).
			l.res.FaultLog = &fault.Log{}
			l.pol = &ftPolicy{log: l.res.FaultLog, resume: cfg.Resume}
		}
	}
	if r != masterOnly {
		l.sfault = noSlaveFault{}
		if l.ft {
			l.sfault = ftSlaveFault{}
			l.inj = fault.NewInjector(cfg.Fault)
			l.hbEvery = fault.NewDetector(cfg.Detect, 1).Config().HeartbeatEvery
		}
	}
	return l, nil
}

// adopt installs the instantiation the run executes and, where the
// assembly runs slaves, resolves their tier (resolveTier) and the native
// kernels that tier needs, shared read-only by every slave.
func (l *launch) adopt(pre *Prepared) error {
	l.exec, l.grain = pre.Exec, pre.Grain
	if l.res != nil {
		l.res.Exec, l.res.Grain = pre.Exec, pre.Grain
	}
	if l.sfault == nil {
		return nil // masterOnly: no slave here
	}
	var err error
	if _, l.bundle, err = resolveTier(l.cfg, pre); err != nil {
		return err
	}
	if l.res != nil && l.bundle != nil {
		l.res.AotInfo = &l.bundle.prog.Info
	}
	return nil
}

// engine hands out the master process over the given cluster parameters
// (the endpoint's cost-model prior).
func (l *launch) engine(cc cluster.Config) *engine {
	var h *hierarchy
	if l.part != nil {
		h = &hierarchy{part: l.part, diff: hier.Diffuser{Alpha: groupDiffusion}, every: l.cfg.GroupExchangeEvery}
	}
	return &engine{
		cfg:      l.cfg,
		cc:       cc,
		initial:  l.initial,
		total:    l.total,
		exec:     l.exec,
		inst:     l.inst,
		res:      l.res,
		pol:      l.pol,
		hier:     h,
		costMode: l.costMode,
	}
}

// slave hands out slave process id; ids from initial up are joiners.
func (l *launch) slave(id int) *slave {
	s := &slave{
		id:        id,
		slaves:    l.initial,
		cfg:       l.cfg,
		exec:      l.exec,
		grain:     l.grain,
		aot:       l.bundle,
		costMode:  l.costMode,
		overlapOn: l.overlapOn,
		fault:     l.sfault,
		hbEvery:   l.hbEvery,
		joiner:    id >= l.initial,
		part:      l.part,
	}
	if s.joiner && l.joins != nil {
		s.joinAt = l.joins[id-l.initial]
	}
	return s
}

// finish completes the Result once the master loop returned.
func (l *launch) finish(eng *engine, elapsed time.Duration) (*Result, error) {
	if eng.err != nil {
		return nil, eng.err
	}
	eng.fold()
	l.res.Elapsed = elapsed
	l.res.Final = eng.final
	l.res.ComputeElapsed = eng.computeEnd - eng.computeStart
	return l.res, nil
}

// instantiate picks the strip-mining grain and instantiates the plan with
// it: once at grain 1 to estimate per-unit cost, then — blocks sized to
// grainFactor × quantum from the cost of one strip row (§4.4) — again, so
// the phase schedule reflects the strip-mined structure. flopNs, the time
// of one flop in nanoseconds, and hookFlops, the cost of one hook visit in
// flops, are all that differ between environments: FlopCost and compile's
// default (0: 200 flops) on the simulator, 1/vmRate and wallHookCostFlops
// on wall clock. cfg.ForcedGrain overrides the grain.
func instantiate(cfg *Config, slaves int, quantum time.Duration, flopNs, hookFlops float64) (*Prepared, error) {
	probe, err := cfg.Plan.InstantiateHook(cfg.Params, 1, hookFlops)
	if err != nil {
		return nil, err
	}
	grain := 1
	if cfg.Plan.StripMined {
		if cfg.ForcedGrain > 0 {
			grain = cfg.ForcedGrain
		} else {
			grain = core.GrainSize(modelRow(probe, slaves, flopNs), quantum, grainFactor)
		}
	}
	exec, err := cfg.Plan.InstantiateHook(cfg.Params, grain, hookFlops)
	if err != nil {
		return nil, err
	}
	return &Prepared{Exec: exec, Grain: grain}, nil
}

// modelRow is the cost of one strip row: the work of one row of an even
// share of the active units, at flopNs nanoseconds per flop.
func modelRow(probe *compile.Exec, slaves int, flopNs float64) time.Duration {
	lo, hi := probe.InitialLo, probe.InitialHi
	perSlaveUnits := (hi - lo + slaves - 1) / slaves
	rowFlops := probe.FlopsPerUnit * float64(perSlaveUnits)
	return time.Duration(rowFlops * flopNs)
}
