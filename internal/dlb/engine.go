package dlb

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/loopir"
	"repro/internal/metrics"
)

// engine is the central load-balancing process (§3.1) — the one master loop
// every endpoint runs. It scatters the initial distribution, mirrors the
// slave loop structure phase by phase, runs the core balancing algorithm on
// the statuses it collects, sends instructions, and gathers the final data.
// Everything fault-related — lease tracking, checkpoint cuts, epoch
// rollback, joiner admission — lives behind the FaultPolicy; with the no-op
// policy the engine is the paper's deterministic runtime.
type engine struct {
	cfg     *Config
	cc      cluster.Config
	initial int // slaves participating from the start
	total   int // slots including not-yet-admitted joiners
	exec    *compile.Exec
	inst    *loopir.Instance
	res     *Result
	pol     FaultPolicy

	ep    Endpoint
	plan  *compile.Plan
	own   *core.Ownership
	bal   *core.Balancer
	setup balancerSetup

	// hier is the two-level hierarchy's cadence state (nil: the flat
	// master); part is non-nil when the run is grouped, and relay routes
	// the physical status/instruction traffic through the group leaders.
	hier  *hierarchy
	part  *hier.Partition
	relay bool

	// Learned per-unit cost model. costModel is non-nil whenever cost
	// blocks are collected (learned mode, or an indirect program under
	// uniform mode — the model then only feeds the imbalance metric);
	// costMode gates whether decisions use it. wRisk/wRate track weighted
	// work since the last committed checkpoint and the latest round's
	// aggregate weighted rate, for work-at-risk checkpoint throttling.
	costModel *UnitCostModel
	costMode  string
	wRisk     float64
	wRate     float64

	done      []bool
	doneCount int

	final        map[string]*loopir.Array
	computeStart time.Duration
	computeEnd   time.Duration
	err          error
}

func (e *engine) runOn(ep Endpoint) {
	e.ep = ep
	e.plan = e.exec.Plan
	if e.res.Counters == nil {
		e.res.Counters = metrics.Counters{}
	}

	// Authoritative ownership + balancer.
	own := core.NewBlockOwnership(e.exec.Units, e.initial)
	own.RetireOutside(e.exec.InitialLo, e.exec.InitialHi)
	e.own = own
	e.setup = newBalancerSetup(e.cfg, e.cc, e.exec, e.inst, e.initial)
	e.bal = e.setup.newBalancer(own)
	if e.costMode == CostLearned || loopir.UsesIArr(e.plan.Prog.Body) {
		e.costModel = NewUnitCostModel(e.exec.Units)
	}
	if e.part != nil && e.part.Groups() > 1 {
		e.hier = &hierarchy{diff: hier.Diffuser{Alpha: e.cfg.GroupDiffusion}, every: e.cfg.GroupExchangeEvery}
	}
	e.done = make([]bool, e.total)
	e.pol.Init(e)

	e.scatter()
	e.computeStart = ep.Now()
	e.pol.Started(e)

	// Phase loop: one iteration per slave contact round.
	for e.remaining() > 0 {
		raw, ok := e.pol.CollectRound(e)
		if e.err != nil {
			return // a recovery found no survivors: the run failed
		}
		if !ok {
			continue // a recovery restarted the epoch; collect afresh
		}
		if raw == nil {
			break // every participant announced completion
		}
		e.handleRound(raw)
	}
	e.computeEnd = ep.Now()

	e.pol.Commit(e)
	e.gather()
	e.res.Owner, _ = e.own.Snapshot()
}

// remaining counts participants that have not announced completion.
func (e *engine) remaining() int {
	n := 0
	for _, id := range e.pol.Participants(e) {
		if !e.done[id] {
			n++
		}
	}
	return n
}

// scatter ships each initial slave its owned slices of the distributed
// arrays and full copies of the replicated ones. A resumed run ships a
// bulk-free placeholder instead: the recovery epoch that follows re-ships
// all state.
func (e *engine) scatter() {
	for sl := 0; sl < e.initial; sl++ {
		var msg InitMsg
		if e.cfg.Resume == nil {
			msg.Owned = packUnits(e.plan.DistArrays, e.own.Owned(sl), slicesOf(e.inst.Arrays))
			msg.Replicated = copyArrays(e.inst.Arrays, e.plan.Replicated)
		}
		e.ep.Send(sl, "init", msg)
		e.res.Counters.Add("scatter_bytes", int64(msgBytes(msg)))
	}
}

// noteDispatch folds a terminating slave's compute-dispatch accounting
// into the engine counters: how much owned work ran through AOT-built
// native kernels, compiled range kernels, or the tree interpreter.
func (e *engine) noteDispatch(st StatusMsg) {
	e.res.Counters.Add("aot_units", st.AotUnits)
	e.res.Counters.Add("kernel_units", st.KernelUnits)
	e.res.Counters.Add("fallback_units", st.FallbackUnits)
	e.res.Counters.Add("overlap_rounds", st.OverlapRounds)
	e.res.Counters.Add("overlap_fallback", st.OverlapFallback)
}

// handleRound runs the load-balancing decision for one complete round and
// sends the (possibly checkpoint-preceded) instructions.
func (e *engine) handleRound(raw map[int]StatusMsg) {
	ids := e.pol.Participants(e)
	first := raw[ids[0]]
	phase, hookIdx := first.Phase, first.HookIndex
	for _, id := range ids {
		st := raw[id]
		if st.Phase != phase || st.HookIndex != hookIdx {
			panic(fmt.Sprintf("dlb: master: slave %d at phase %d/hook %d, slave %d at %d/%d",
				id, st.Phase, st.HookIndex, ids[0], phase, hookIdx))
		}
	}
	e.res.Phases++
	e.res.Counters.Add("rounds", 1)
	e.res.Counters.Add("status_reports", int64(len(raw)))
	e.pol.RoundObserved(e)

	e.ep.Charge(e.roundCharge(len(raw)))

	// Mirror the slave control flow: retire completed work (§4.7).
	meta := e.exec.Phases[hookIdx]
	e.own.RetireOutside(meta.ActiveLo, meta.ActiveHi)

	// Pool the round's measured per-block costs (in id order, keeping the
	// fold deterministic) into one model update, and account the weighted
	// work completed since the last checkpoint.
	if e.costModel != nil {
		var pool []CostBlock
		for _, id := range ids {
			st := raw[id]
			e.wRisk += e.costModel.WeightDone(st.CostBlocks)
			pool = append(pool, st.CostBlocks...)
		}
		e.costModel.Observe(pool)
	}

	var d core.Decision
	if e.cfg.DLB {
		d = e.decide(raw, ids, phase, hookIdx)
		if sum := rateSum(d.FilteredRates); sum > 0 {
			e.wRate = sum
		}
		e.recordLoad(phase, ids)
	}

	ckptSeq := 0
	if e.ckptEligible() {
		ckptSeq = e.pol.CheckpointSeq(e, phase, ids)
	}

	instr := InstrMsg{Phase: phase, HookIndex: hookIdx, Moves: d.Moves, SkipHooks: d.SkipHooks, Epoch: e.pol.Epoch(), CkptSeq: ckptSeq}
	if e.relay {
		// Grouped fan-out: one GroupShiftMsg per leader; each leader
		// relays the instruction to its members off the master's critical
		// path.
		gs := GroupShiftMsg{Instr: instr}
		for g := 0; g < e.part.Groups(); g++ {
			e.ep.Send(e.part.Leader(g), "ginstr", gs)
		}
		e.res.Counters.Add("instr_bytes", int64(msgBytes(gs))*int64(e.part.Groups()))
	} else {
		for _, id := range ids {
			e.ep.Send(id, "instr", instr)
		}
		e.res.Counters.Add("instr_bytes", int64(msgBytes(instr))*int64(len(ids)))
	}
	e.pol.RoundSent(e)
}

func rateSum(rates []float64) float64 {
	s := 0.0
	for _, r := range rates {
		s += r
	}
	return s
}

// recordLoad samples the post-decision weighted load distribution: max and
// mean per-participant weighted active backlog under the run's cost model
// (weight 1.0 everywhere without one). max/mean is the imbalance factor
// dlbrun -stats reports.
func (e *engine) recordLoad(phase int, ids []int) {
	var w []float64
	if e.costModel != nil {
		w = e.costModel.Weights()
	}
	totals := core.ActiveWeightTotals(e.own, w)
	max, sum := 0.0, 0.0
	for _, id := range ids {
		if id >= len(totals) {
			continue
		}
		if totals[id] > max {
			max = totals[id]
		}
		sum += totals[id]
	}
	if sum <= 0 {
		return
	}
	e.res.Loads = append(e.res.Loads, LoadSample{Phase: phase, Max: max, Mean: sum / float64(len(ids))})
}

// riskTime converts the weighted work completed since the last committed
// checkpoint into an equivalent busy duration at the current aggregate
// rate. Only the learned cost model uses it: under uniform weights the
// wall-clock interval the checkpoint policy already measures is the same
// signal.
func (e *engine) riskTime() (time.Duration, bool) {
	if e.costMode != CostLearned || e.wRate <= 0 {
		return 0, false
	}
	return time.Duration(e.wRisk / e.wRate * float64(time.Second)), true
}

// gather assembles the final arrays from the surviving participants. With a
// fault policy a failure after completion was committed (the documented
// post-done window) surfaces as a run error instead of a hang.
func (e *engine) gather() {
	final := map[string]*loopir.Array{}
	for arr, a := range e.inst.Arrays {
		final[arr] = a.Clone()
	}
	timeout := e.pol.GatherTimeout(e)
	for range e.pol.Participants(e) {
		var msg cluster.Msg
		if timeout > 0 {
			m, ok := recvTimeout(e.ep, cluster.AnySource, "gather", timeout)
			if !ok {
				e.err = fmt.Errorf("dlb: gather timed out after %v (slave failed after completion was committed)", timeout)
				return
			}
			msg = m
		} else {
			msg = e.ep.Recv(cluster.AnySource, "gather")
		}
		g := msg.Data.(GatherMsg)
		e.res.Counters.Add("gather_msgs", 1)
		installUnits(e.plan.DistArrays, final, g.Data)
		installArrays(final, g.Reduced)
	}
	e.final = final
}
