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

	// Master side.
	part  *hier.Partition
	relay bool
	inst  *loopir.Instance
	res   *Result
	pol   FaultPolicy

	// Slave side.
	native  bool // slaves run on the aot tier; adopt supplies bundle
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

	if r != slaveOnly {
		if cfg.Groups > 1 {
			if !cfg.DLB {
				return nil, fmt.Errorf("dlb: hierarchical groups require DLB (leaders aggregate the balancing contacts)")
			}
			if l.part, err = hier.Split(initial, cfg.Groups); err != nil {
				return nil, err
			}
		}
		// Reports relay member→leader→master only without faults; with them
		// the hierarchy is decisions-only — the lease detector must observe
		// every slave itself.
		l.relay = l.part != nil && !l.ft
		// Master instance: initial data source and final destination.
		if l.inst, err = loopir.NewInstance(cfg.Plan.Prog, cfg.Params); err != nil {
			return nil, err
		}
		l.res = &Result{}
		l.pol = noFaultPolicy{}
		if l.ft {
			l.res.FaultLog = &fault.Log{} // written by the master only
			l.pol = &ftPolicy{log: l.res.FaultLog, resume: cfg.Resume}
		}
	}
	if r != masterOnly {
		l.native = l.tier == KernelAOT
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
// assembly runs slaves on the aot tier, their native kernels: the ones a
// daemon's handshake already loaded into pre (Prepared.LoadNative), else
// built (or cache-loaded) here — before any slave spawns, because the
// toolchain must not run inside the virtual-time scheduler — and shared
// read-only.
func (l *launch) adopt(pre *Prepared) error {
	l.exec, l.grain = pre.Exec, pre.Grain
	if l.res != nil {
		l.res.Exec, l.res.Grain = pre.Exec, pre.Grain
	}
	if !l.native {
		return nil
	}
	if l.bundle = pre.native; l.bundle == nil {
		var err error
		if l.bundle, err = buildAOT(l.cfg.Plan, l.cfg.Params); err != nil {
			return err
		}
	}
	if l.res != nil {
		l.res.AotInfo = &l.bundle.prog.Info
	}
	return nil
}

// engine hands out the master process over the given cluster parameters
// (the endpoint's cost-model prior).
func (l *launch) engine(cc cluster.Config) *engine {
	return &engine{
		cfg:      l.cfg,
		cc:       cc,
		initial:  l.initial,
		total:    l.total,
		exec:     l.exec,
		inst:     l.inst,
		res:      l.res,
		pol:      l.pol,
		part:     l.part,
		relay:    l.relay,
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
		tier:      l.tier,
		aot:       l.bundle,
		costMode:  l.costMode,
		overlapOn: l.overlapOn,
		fault:     l.sfault,
		hbEvery:   l.hbEvery,
		joiner:    id >= l.initial,
	}
	if l.relay {
		s.part = l.part
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
	l.res.Elapsed = elapsed
	l.res.Final = eng.final
	l.res.ComputeElapsed = eng.computeEnd - eng.computeStart
	return l.res, nil
}

// instantiate picks the strip-mining grain and instantiates the plan with
// it: once at grain 1 to estimate per-unit cost, then — blocks sized to
// grainFactor × quantum from the cost of one strip row (§4.4) — again, so
// the phase schedule reflects the strip-mined structure. rowCost is all
// that differs between environments: the FlopCost model on the simulator,
// a timed sweep on wall clock. cfg.ForcedGrain overrides it.
func instantiate(cfg *Config, slaves int, quantum time.Duration, rowCost func(cfg *Config, probe *compile.Exec, slaves int) (time.Duration, error)) (*Prepared, error) {
	probe, err := cfg.Plan.Instantiate(cfg.Params, 1, cfg.CompileOpts)
	if err != nil {
		return nil, err
	}
	grain := 1
	if cfg.Plan.StripMined {
		if cfg.ForcedGrain > 0 {
			grain = cfg.ForcedGrain
		} else {
			row, err := rowCost(cfg, probe, slaves)
			if err != nil {
				return nil, err
			}
			grain = core.GrainSize(row, quantum, grainFactor)
		}
	}
	exec, err := cfg.Plan.Instantiate(cfg.Params, grain, cfg.CompileOpts)
	if err != nil {
		return nil, err
	}
	return &Prepared{Exec: exec, Grain: grain, Opts: cfg.CompileOpts}, nil
}
