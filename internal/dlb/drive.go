package dlb

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/loopir"
)

// This file is the plumbing that lets an external transport — most
// importantly the TCP runtime in internal/netrun — drive the master and
// slave loops over its own Endpoint implementation. Run and RunReal stay
// the in-process entry points; RunMasterOn/RunSlaveOn expose the identical
// protocol code to endpoints whose processes live in different address
// spaces.

// AbortTag is the fail-fast marker a dying process broadcasts so peers
// blocked on it error out instead of deadlocking. Transports reuse it for
// the same purpose across process boundaries.
const AbortTag = abortTag

// Terminal slave outcomes a transport must distinguish from bugs: an
// injected crash (the process is scheduled to die) and an eviction (the
// master recovered past this slave; a zombie must not rejoin its epoch).
var (
	ErrInjectedCrash = errors.New("dlb: slave halted by injected crash")
	ErrEvicted       = errors.New("dlb: slave evicted by master")
)

// ErrNoSurvivors is returned by Run, RunReal and RunMasterOn when a
// recovery finds every slave dead (crashed, or falsely evicted by too
// short a lease) and no joiner to adopt the checkpoint.
var ErrNoSurvivors = errors.New("dlb: recovery impossible: no surviving slaves")

// Prepared is the instantiation both sides of a distributed run must agree
// on: the same plan, parameters, strip-mining grain and compile options
// (including a measured hook cost) yield the same phase schedule — and
// hence the same plan hash — everywhere.
type Prepared struct {
	Exec  *compile.Exec
	Grain int
	// Opts is the resolved compile.Options actually used: if Prepare
	// rebased HookCostFlops on measured kernel speed, transports must ship
	// this resolved value to slaves instead of the caller's zero, or the
	// two sides would instantiate different hook schedules.
	Opts compile.Options
}

// Prepare instantiates cfg.Plan for a real (wall-clock) environment with
// the startup grain measurement RunReal uses: time one strip row, size
// blocks to GrainFactor × RealQuantum (§4.4). cfg.ForcedGrain overrides
// the measurement — the master ships its computed grain to slaves, which
// re-instantiate with exactly that value.
func Prepare(cfg Config, slaves int) (*Prepared, error) {
	cfg = cfg.withDefaults()
	if cfg.Plan == nil {
		return nil, fmt.Errorf("dlb: no plan")
	}
	if slaves < 1 {
		return nil, fmt.Errorf("dlb: need at least one slave")
	}
	if cfg.CompileOpts.HookCostFlops <= 0 {
		cfg.CompileOpts.HookCostFlops = realHookCostFlops()
	}
	probe, err := cfg.Plan.Instantiate(cfg.Params, 1, cfg.CompileOpts)
	if err != nil {
		return nil, err
	}
	grain := 1
	if cfg.Plan.StripMined {
		if cfg.ForcedGrain > 0 {
			grain = cfg.ForcedGrain
		} else {
			rowCost, err := measureRealRow(cfg.Plan, cfg.Params, probe, slaves)
			if err != nil {
				return nil, err
			}
			q := cfg.RealQuantum
			if q <= 0 {
				q = 10 * time.Millisecond
			}
			grain = core.GrainSize(rowCost, q, cfg.GrainFactor)
		}
	}
	exec, err := cfg.Plan.Instantiate(cfg.Params, grain, cfg.CompileOpts)
	if err != nil {
		return nil, err
	}
	return &Prepared{Exec: exec, Grain: grain, Opts: cfg.CompileOpts}, nil
}

// RunMasterOn drives the fault-tolerant master over an arbitrary endpoint.
// initial is the starting membership; total additionally counts joiner
// slots the transport may admit mid-run (ids initial..total-1). The run is
// always fault-tolerant — on a transport that can lose connections, the
// heartbeat-lease detector is what turns a dead link into an eviction
// instead of a deadlock — so cfg.DLB must be set (hooks are the heartbeat
// and checkpoint substrate). A nil cfg.Fault arms detection, checkpointing
// and elastic join without injecting anything; scheduled Join events are
// ignored here (the transport owns admission).
func RunMasterOn(ep Endpoint, cfg Config, cc cluster.Config, initial, total int, pre *Prepared) (res *Result, err error) {
	cfg = cfg.withDefaults()
	if !cfg.DLB {
		return nil, fmt.Errorf("dlb: transport-driven runs require DLB (hooks are the heartbeat and checkpoint substrate)")
	}
	if total < initial {
		total = initial
	}
	if cfg.Fault == nil {
		cfg.Fault = &fault.Plan{}
	}
	if err := cfg.Fault.Validate(); err != nil {
		return nil, err
	}
	if cfg.Resume != nil && cfg.Resume.Slaves != initial {
		return nil, fmt.Errorf("dlb: resume checkpoint was cut with %d slaves, run has %d", cfg.Resume.Slaves, initial)
	}
	masterInst, err := loopir.NewInstance(cfg.Plan.Prog, cfg.Params)
	if err != nil {
		return nil, err
	}
	// Grouped transport runs are decisions-only: the two-level balancing
	// and exchange-aligned checkpoint cuts apply, but reports keep flowing
	// directly to the master — the heartbeat-lease detector must observe
	// every slave itself, so leaders never sit on the failure path.
	part, err := cfg.groupPartition(initial)
	if err != nil {
		return nil, err
	}
	flog := &fault.Log{}
	r := &Result{Exec: pre.Exec, Grain: pre.Grain, FaultLog: flog}
	eng := &engine{
		cfg:     &cfg,
		cc:      cc,
		initial: initial,
		total:   total,
		exec:    pre.Exec,
		inst:    masterInst,
		res:     r,
		pol:     &ftPolicy{log: flog, resume: cfg.Resume},
		part:    part,
	}
	start := ep.Now()
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(preemptStop); ok {
				// A cooperative stop: the policy committed the stop
				// checkpoint, published it on the Result, and released the
				// slaves before unwinding.
				r.Elapsed = ep.Now() - start
				res, err = r, ErrPreempted
				return
			}
			err = fmt.Errorf("dlb: master: %v", p)
		}
	}()
	eng.runOn(ep)
	if eng.err != nil {
		return nil, eng.err
	}
	r.Elapsed = ep.Now() - start
	r.Final = eng.final
	r.ComputeElapsed = eng.computeEnd - eng.computeStart
	return r, nil
}

// RunSlaveOn drives one slave over an arbitrary endpoint. id is this
// slave's node id and slaves the initial membership size; a joiner
// registers with the master immediately and waits for admission. cfg.Fault
// events targeting this id are injected through the endpoint exactly as in
// Run/RunReal. Returns nil on a completed run, ErrInjectedCrash or
// ErrEvicted for deliberate deaths, and lets genuine bugs panic through to
// the caller.
func RunSlaveOn(ep Endpoint, cfg Config, id, slaves int, joiner bool, pre *Prepared) (err error) {
	cfg = cfg.withDefaults()
	if id < 0 || slaves < 1 {
		return fmt.Errorf("dlb: bad slave id %d of %d", id, slaves)
	}
	if cfg.Fault == nil {
		cfg.Fault = &fault.Plan{}
	}
	hbEvery := fault.NewDetector(cfg.Detect, 1).Config().HeartbeatEvery
	// A daemon slave is a real OS process: building (or cache-loading) the
	// native kernels inline here is safe, and the on-disk cache makes every
	// run after the first a warm start.
	tier, err := cfg.KernelTier()
	if err != nil {
		return err
	}
	var bundle *aotBundle
	if tier == KernelAOT {
		if bundle, err = buildAOT(cfg.Plan, cfg.Params); err != nil {
			return err
		}
	}
	s := &slave{
		id:      id,
		slaves:  slaves,
		cfg:     &cfg,
		exec:    pre.Exec,
		grain:   pre.Grain,
		tier:    tier,
		aot:     bundle,
		fault:   ftSlaveFault{},
		hbEvery: hbEvery,
		joiner:  joiner,
	}
	defer func() {
		if p := recover(); p != nil {
			switch p.(type) {
			case crashExit:
				err = ErrInjectedCrash
			case evictExit:
				err = ErrEvicted
			default:
				panic(p)
			}
		}
	}()
	inj := fault.NewInjector(cfg.Fault)
	s.runOn(newFaultEP(ep, id, inj, nil))
	return nil
}
