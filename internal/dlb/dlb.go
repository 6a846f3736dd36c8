// Package dlb is the run-time library for automatically generated parallel
// programs with dynamic load balancing — the paper's master/slave system
// (§3, §4) executing compile.Plan programs on a simulated workstation
// cluster.
//
// One master process and N slave processes run on a cluster.Cluster.
// Slaves execute the generated step tree on full-size local arrays (only
// owned slices hold valid data; the ownership map is the paper's index
// array), exchanging boundary and pipeline data directly with each other.
// At load-balancing hooks they report work units per second of busy time to
// the master, which runs the internal/core balancing algorithm and returns
// redistribution instructions; work (data slices plus adjacent ghost
// slices) then moves directly between slaves. Master interactions are
// pipelined by default (§3.3) — instructions received at hook n were
// computed from the statuses of hook n−1 — or synchronous for the ablation
// experiment.
package dlb

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/aot"
	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/fault"
	"repro/internal/loopir"
	"repro/internal/metrics"
	"repro/internal/vtime"
)

// Config controls one parallel run. A value no caller varies is a constant,
// not a field: the hierarchy's diffusion factor (groupDiffusion), the §4.2
// hook rule (compile's 1 %) and the Figure 9 trace, which every run records.
type Config struct {
	// Plan is the compiled program.
	Plan *compile.Plan
	// Params binds the program parameters.
	Params map[string]int
	// DLB enables dynamic load balancing; when false the initial block
	// distribution is kept for the whole run (the paper's "parallel
	// execution" baseline).
	DLB bool
	// Synchronous selects blocking master interactions instead of
	// pipelined ones (§3.3 ablation).
	Synchronous bool
	// Balancer overrides parts of the core configuration. Slaves,
	// Restricted and Quantum are filled in by the runtime.
	MinImprovement       float64 // 0 means the paper's 10%
	DisableFilter        bool
	DisableProfitability bool
	// FlopCost is the virtual CPU time per floating-point operation at
	// baseline speed. The default (1 µs) calibrates the simulated
	// workstations to the paper's Sun 4/330s (~1 Mflop/s), matching the
	// axis scale of Figures 5-8.
	FlopCost time.Duration
	// ForcedGrain overrides the computed strip-mining grain when positive
	// (grain-size ablation; 1 disables strip mining's benefit, reproducing
	// Figure 3b's fine-grain pipeline).
	ForcedGrain int
	// Groups partitions the slaves into that many contiguous groups for
	// two-level hierarchical balancing (internal/hier): members report to
	// their group leader, each leader relays one aggregate to the master
	// and the instruction back, the balancer runs within each group every
	// period, and groups exchange whole block ranges diffusively on a
	// slower cadence. 0 or 1 keeps the flat centralized master. More than
	// one group with fault tolerance — a Fault plan, or any transport-driven
	// run — is refused with ErrGroupsWithFaults.
	Groups int
	// GroupExchangeEvery is the inter-group exchange cadence in decision
	// rounds (default 4): between exchanges groups balance independently.
	GroupExchangeEvery int
	// PerReportCost is the master's (or a leader's) CPU cost to process
	// one status report, on top of masterDecisionCost per round. The
	// default 0 keeps earlier schedules bit-identical; the scale
	// experiment sets it to make the O(slaves) centralized fan-in cost
	// visible.
	PerReportCost time.Duration
	// Kernel selects the execution tier. "" (the default) runs native where
	// it pays, else on the VM: once the plan is instantiated, the run goes
	// native when its predicted VM time is at least twice a cold native
	// build (nativePays), and a build or plugin open that fails leaves it
	// on the VM, with aot_units = 0 saying so. The two values are pins:
	// "kernel" compiles every compute step — owned loops, owner blocks,
	// replicated statements — to the kernel IR run by the postfix VM; and
	// "aot" prints the owned loops' IR as Go source, builds it with the
	// toolchain into a cached native artifact, and dispatches to it,
	// failing the run with the remedy when the host cannot build. Both
	// tiers lower every program, indirect subscripts included, and are
	// bit-identical.
	Kernel string
	// CostModel selects how the master weighs work units when balancing:
	// "uniform" (the default) keeps the classic every-unit-equal
	// assumption, "learned" has slaves measure per-block busy time online
	// and the master learn relative per-unit weights (EWMA, seeded from
	// the uniform prior) so irregular programs — sparse matrices,
	// power-law particle bins — balance on estimated cost instead of unit
	// counts. Dense programs produce uniform measurements and stay
	// bit-identical to the uniform mode.
	CostModel string
	// Overlap gates the split-loop async ghost exchange: for exchanges the
	// compiler marked split-loop eligible, slaves post the ghost sends,
	// compute the interior units (whose stencil reads cannot touch a
	// ghost), receive, and finish with the boundary units — hiding the
	// network round-trip behind interior compute. "" or "on" enables it
	// (the default), "off" forces every exchange synchronous. Results,
	// schedules and ownership are bit-identical either way; only elapsed
	// time differs. The knob does not enter the plan hash — eligibility is
	// recorded in the rendered plan source, the knob only gates the
	// runtime.
	Overlap string
	// RealQuantum is the grain-sizing target quantum for RunReal (default
	// 10 ms; real OS slices are far shorter than the Sun 4/330's 100 ms).
	RealQuantum time.Duration
	// RealDrag slows individual slaves in RunReal by the given factor
	// (>= 1), emulating slower or loaded machines with controlled sleeps.
	RealDrag []float64
	// Fault enables the fault-tolerant runtime and injects the given
	// failure schedule (which may be empty: detection, checkpointing and
	// elastic join stay armed without any injected fault). Requires DLB —
	// the load-balancing hooks are the heartbeat and checkpoint substrate.
	Fault *fault.Plan
	// Ckpt throttles periodic checkpoints (fault-tolerant runs).
	Ckpt fault.CkptPolicy
	// Detect tunes master-side failure detection (fault-tolerant runs).
	Detect fault.DetectorConfig
	// Preempt, when set, lets a scheduler request a cooperative stop: the
	// master forces a checkpoint at the next consumable round, evicts every
	// slave, and returns ErrPreempted with Result.Checkpoint holding the
	// committed snapshot. Transport-driven runs only (RunMasterOn).
	Preempt *PreemptControl
	// Resume, when set, restarts a preempted run from the given snapshot
	// instead of the initial data: the initial membership must match the
	// checkpoint's, and the run's first act is a recovery epoch that
	// re-ships the snapshot state and fast-forwards the slaves to the cut
	// hook. Transport-driven runs only (RunMasterOn).
	Resume *fault.Checkpoint
}

// The cost model's fixed terms.
const (
	// hookCheckCost is the bookkeeping cost of visiting an inactive hook.
	hookCheckCost = 10 * time.Microsecond
	// masterDecisionCost is the master's CPU cost per load-balancing phase.
	masterDecisionCost = 200 * time.Microsecond
	// grainFactor scales the strip-mining grain: blocks cost grainFactor ×
	// quantum (§4.4; the paper uses 1.5).
	grainFactor = 1.5
)

func (c Config) withDefaults() Config {
	if c.FlopCost <= 0 {
		c.FlopCost = time.Microsecond
	}
	if c.MinImprovement == 0 {
		c.MinImprovement = 0.10
	}
	if c.GroupExchangeEvery <= 0 {
		c.GroupExchangeEvery = 4
	}
	return c
}

// Kernel execution tiers.
const (
	KernelVM  = "kernel"
	KernelAOT = "aot"
)

// KernelTier checks the Kernel knob: a pinned tier, or "" — native where
// it pays, else the VM, decided per run once the plan is instantiated
// (resolveTier). Anything else is an error naming the valid tiers.
func (c Config) KernelTier() (string, error) {
	switch c.Kernel {
	case "", KernelVM, KernelAOT:
		return c.Kernel, nil
	}
	return "", fmt.Errorf("dlb: unknown kernel tier %q (want %q or %q)", c.Kernel, KernelVM, KernelAOT)
}

// Cost-model modes for the balancer's view of work units.
const (
	CostUniform = "uniform"
	CostLearned = "learned"
)

// CostModelMode resolves the CostModel knob ("" means uniform) or returns
// an error naming the valid modes.
func (c Config) CostModelMode() (string, error) {
	switch c.CostModel {
	case "", CostUniform:
		return CostUniform, nil
	case CostLearned:
		return CostLearned, nil
	}
	return "", fmt.Errorf("dlb: unknown cost model %q (want %q or %q)",
		c.CostModel, CostUniform, CostLearned)
}

// Overlap modes for the split-loop async ghost exchange.
const (
	OverlapEnabled  = "on"
	OverlapDisabled = "off"
)

// OverlapOn resolves the Overlap knob ("" means on) or returns an error
// naming the valid modes.
func (c Config) OverlapOn() (bool, error) {
	switch c.Overlap {
	case "", OverlapEnabled:
		return true, nil
	case OverlapDisabled:
		return false, nil
	}
	return false, fmt.Errorf("dlb: unknown overlap mode %q (want %q or %q)",
		c.Overlap, OverlapEnabled, OverlapDisabled)
}

// modes is what a valid Config's mode strings resolve to.
type modes struct {
	costMode  string
	overlapOn bool
}

// ErrGroupsWithFaults refuses a grouped run (Groups > 1) that is also
// fault-tolerant: a Fault plan under Run or RunReal, or any RunMasterOn or
// RunSlaveOn, which always arm one. The relay hides members from the
// master, so its lease detector could not observe them.
var ErrGroupsWithFaults = errors.New("dlb: Groups > 1 cannot run fault-tolerant (a fault plan, or any transport-driven run)")

// Validate returns the typed error every entry point would refuse c with
// (nil: runnable), for a transport to call before it dials anyone.
func (c Config) Validate() error {
	_, err := c.validate()
	return err
}

// validate rejects a Config no entry point can run — no plan, an unknown
// mode string, a fault plan without the DLB hooks it rides on, a malformed
// fault plan, groups under fault tolerance — as a typed error before
// anything is instantiated or spawned, and resolves the mode strings.
func (c *Config) validate() (m modes, err error) {
	if c.Plan == nil {
		return m, fmt.Errorf("dlb: no plan")
	}
	if _, err = c.KernelTier(); err != nil {
		return m, err
	}
	if m.costMode, err = c.CostModelMode(); err != nil {
		return m, err
	}
	if m.overlapOn, err = c.OverlapOn(); err != nil {
		return m, err
	}
	if c.Fault != nil {
		if !c.DLB {
			return m, fmt.Errorf("dlb: fault tolerance requires DLB (hooks are the heartbeat and checkpoint substrate)")
		}
		if err := c.Fault.Validate(); err != nil {
			return m, err
		}
		if c.Groups > 1 {
			return m, ErrGroupsWithFaults
		}
	}
	return m, nil
}

// Sample is one trace record: a slave's reported and filtered rates and its
// resulting work assignment at a load-balancing phase (Figure 9's series).
type Sample struct {
	Time     time.Duration
	Phase    int
	Slave    int
	RawRate  float64
	Filtered float64
	Work     int
	// SkipHooks is the hook-skip count chosen at this phase (§4.3; grows
	// as per-invocation work shrinks, e.g. LU §4.7).
	SkipHooks int
	// Period is the target load-balancing period chosen at this phase.
	Period time.Duration
}

// LoadSample is one balancing round's weighted load distribution: the max
// and mean per-slave weighted active backlog after the round's moves.
type LoadSample struct {
	Phase     int
	Max, Mean float64
}

// Result summarizes a run.
type Result struct {
	// Elapsed is the virtual time from start to the last gather.
	Elapsed time.Duration
	// ComputeElapsed is the virtual time of the compute portion (after the
	// initial scatter, before the final gather).
	ComputeElapsed time.Duration
	// Usage is each slave's accounting over the whole run.
	Usage []cluster.Usage
	// MasterUsage is the master process's accounting — per-round busy time
	// here is the centralized coordination cost the hierarchy attacks.
	MasterUsage cluster.Usage
	// Final holds the gathered arrays.
	Final map[string]*loopir.Array
	// Exec is the instantiated plan that was executed.
	Exec *compile.Exec
	// Grain is the strip-mining block size used.
	Grain int
	// Phases is the number of master interactions.
	Phases int
	// Moves counts issued work movements; UnitsMoved the total units.
	Moves, UnitsMoved int
	// Trace holds Figure 9's series: one Sample per participant per
	// balancing round, on every endpoint.
	Trace []Sample
	// Loads records the weighted load distribution at each balancing
	// round: max and mean per-slave weighted backlog under the run's cost
	// model (all weights 1.0 in uniform mode). max/mean is the imbalance
	// factor the -stats flag reports.
	Loads []LoadSample
	// Counters holds the engine's named event counters — the same names on
	// every endpoint (simulated, wall-clock, TCP).
	Counters metrics.Counters
	// Fault-tolerant runs: recovery epochs started, checkpoints committed,
	// slaves declared dead, joiner slots admitted, and the deterministic
	// fault-handling event trace.
	Recoveries  int
	Checkpoints int
	Evicted     []int
	Joined      []int
	FaultLog    *fault.Log
	// Checkpoint is the committed stop snapshot of a preempted run
	// (ErrPreempted); hand it to Config.Resume to continue the run later.
	Checkpoint *fault.Checkpoint
	// Owner is the final unit-to-slave ownership map: the state of the
	// replicated map when the run committed.
	Owner []int
	// AotInfo describes the native-kernel build when the run used the aot
	// tier: cache key, warm/cold, emit/build/load durations.
	AotInfo *aot.BuildInfo
}

// Run executes the plan on the given cluster configuration and returns the
// result. It builds its own virtual-time kernel; the run is a deterministic
// function of (cfg, cc).
func Run(cfg Config, cc cluster.Config) (*Result, error) { return run(cfg, cc, 0) }

// run is Run with its virtual clock bounded: past limit (0: none) it stops
// every process and returns vtime.ErrLimit.
func run(cfg Config, cc cluster.Config, limit time.Duration) (*Result, error) {
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	l, err := assemble(cfg, wholeRun, cc.Slaves, 0)
	if err != nil {
		return nil, err
	}
	quantum := cc.Quantum
	if quantum <= 0 {
		quantum = 100 * time.Millisecond
	}
	pre, err := instantiate(l.cfg, l.initial, quantum, float64(l.cfg.FlopCost), 0)
	if err != nil {
		return nil, err
	}
	if err := l.adopt(pre); err != nil {
		return nil, err
	}

	k := vtime.NewKernel()
	k.SetLimit(limit)
	cc.Slaves = l.total
	c := cluster.New(k, cc)
	eng := l.engine(c.Config())
	c.Spawn("master", cluster.MasterID, func(p *vtime.Proc, n *cluster.Node) {
		eng.runOn(&simEndpoint{p: p, n: n})
	})
	for id := 0; id < l.total; id++ {
		id, s := id, l.slave(id)
		c.Spawn(fmt.Sprintf("slave%d", id), id, func(p *vtime.Proc, n *cluster.Node) {
			// An injected crash (or a zombie's eviction) kills the process
			// by panic; recover it so the proc dies silently, exactly as a
			// failed workstation would. Without a fault plan nothing is
			// injected and the wrapper is inert.
			defer func() {
				if rec := recover(); rec != nil && !isFaultExit(rec) {
					panic(rec)
				}
			}()
			s.runOn(newFaultEP(&simEndpoint{p: p, n: n}, id, l.inj, l.res.FaultLog))
		})
	}
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("dlb: %w", err)
	}
	for i := 0; i < l.total; i++ {
		n := c.Node(i)
		n.FinishAt(k.Now())
		l.res.Usage = append(l.res.Usage, n.Usage())
	}
	mn := c.Node(cluster.MasterID)
	mn.FinishAt(k.Now())
	l.res.MasterUsage = mn.Usage()
	return l.finish(eng, k.Now())
}

// SequentialTime estimates the sequential execution time of the program on
// a dedicated baseline workstation under the same calibration, and runs the
// computation to produce reference arrays.
func SequentialTime(plan *compile.Plan, params map[string]int, flopCost time.Duration) (time.Duration, map[string]*loopir.Array, error) {
	if flopCost <= 0 {
		flopCost = time.Microsecond
	}
	inst, err := loopir.NewInstance(plan.Prog, params)
	if err != nil {
		return 0, nil, err
	}
	if err := inst.Run(); err != nil {
		return 0, nil, err
	}
	var est *loopir.Instance
	if loopir.UsesIArr(plan.Prog.Body) {
		// Indirect programs' trip counts are data-dependent: estimate
		// against a freshly initialized instance (pre-Run values of the
		// index arrays equal the post-init values the parallel run charges
		// against, since index arrays are never written).
		if est, err = loopir.NewInstance(plan.Prog, params); err != nil {
			return 0, nil, err
		}
	}
	return time.Duration(est.EstFlops(plan.Prog.Body, params) * float64(flopCost)), inst.Arrays, nil
}
