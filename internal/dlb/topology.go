package dlb

import (
	"time"

	"repro/internal/core"
	"repro/internal/hier"
)

// The engine's decision layer: one collected round of statuses becomes one
// core.Balancer step. The paper's algorithm — apportion, threshold, moves,
// profitability, apply — lives in internal/core only; this file holds what
// is genuinely the run-time's: converting reports into balancer statuses,
// the hierarchy's exchange cadence and diffuser call, the master's modeled
// coordination cost, and the run counters and trace. It is orthogonal to
// FaultPolicy — the fault layer owns *who* reports and *when* rounds
// restart.

// hierarchy is the two-level scheme's run-time state. Every decision round
// each group's allotment is re-apportioned over its own members (the
// balancer's rule, confined to the group); on the exchange cadence the
// diffuser shifts load across the group boundaries first. A nil *hierarchy
// is the paper's centralized master.
type hierarchy struct {
	part  *hier.Partition
	diff  hier.Diffuser
	every int // exchange cadence in decision rounds
	round int
}

// grouping is the round's core.Grouping: the partition's leaders as group
// starts, plus — on the exchange cadence — the diffuser as the exchange.
// Rounds with no active work do not advance the cadence.
func (h *hierarchy) grouping(e *engine, weighted bool) core.Grouping {
	g := core.Grouping{Starts: h.part.Leaders()}
	if e.own.ActiveTotal() == 0 {
		return g
	}
	h.round++
	if h.every <= 0 || h.round%h.every != 0 {
		return g
	}
	e.acct.hierExchanges++
	g.Exchange = func(loads []core.GroupLoad) []float64 {
		sums := make([]hier.Summary, len(loads))
		for i, l := range loads {
			sums[i] = hier.Summary{Rate: l.Rate, Backlog: l.Units, Weight: l.Weight}
		}
		if weighted {
			return h.diff.FlowsWeighted(sums)
		}
		flows := make([]float64, len(sums)-1)
		for i, f := range h.diff.Flows(sums) {
			flows[i] = float64(f)
		}
		return flows
	}
	return g
}

// decide runs the round's balancing decision over the collected statuses
// (applying any moves to e.own) and returns it. Only called when cfg.DLB is
// set.
func (e *engine) decide(raw map[int]StatusMsg, ids []int, phase, hookIdx int) core.Decision {
	uph := unitsPerHookAt(e, hookIdx)
	var weights []float64
	if active, ok := weightedRound(e); ok {
		weights = e.costModel.Weights()
		uph *= e.costModel.ActiveMean(active)
	}
	statuses := roundStatuses(e, raw, ids, weights != nil)
	var grp core.Grouping
	if e.hier != nil {
		grp = e.hier.grouping(e, weights != nil)
	}
	d := e.bal.StepGrouped(statuses, uph, weights, grp)
	e.pol.NoteRates(d.FilteredRates)
	noteMoves(e, d)
	recordTrace(e, ids, statuses, d, phase)
	return d
}

// roundCharge is the master's CPU cost for processing this round's reports
// and deciding.
func (e *engine) roundCharge(nReports int) time.Duration {
	if e.hier != nil {
		// The master processes one aggregate per group; the per-member
		// processing was charged on the leaders.
		nReports = e.hier.part.Groups()
	}
	return masterDecisionCost + time.Duration(nReports)*e.cfg.PerReportCost
}

// unitsPerHookAt is the total work executed between consecutive hook
// instances — the upcoming interval's figure when there is one.
func unitsPerHookAt(e *engine, hookIdx int) float64 {
	uph := float64(e.exec.Phases[hookIdx].UnitsBetween)
	if next := hookIdx + 1; next < len(e.exec.Phases) {
		uph = float64(e.exec.Phases[next].UnitsBetween)
	}
	return uph
}

// roundStatuses converts a round's reports into balancer statuses: measured
// rates, with empty slaves imputed the mean of the others so they can win
// work back (a slave with no work cannot measure its capability). Work done
// is the reported unit count, or under live learned weights the
// model-weighted units, so machine speed is measured independently of which
// (cheap or expensive) units a slave happened to hold.
func roundStatuses(e *engine, raw map[int]StatusMsg, ids []int, weighted bool) []core.Status {
	counts := e.own.ActiveCounts()
	statuses := make([]core.Status, e.own.Slaves())
	var sumRate float64
	var nRate int
	for _, id := range ids {
		st := raw[id]
		done := st.Units
		if weighted {
			done = e.costModel.WeightDone(st.CostBlocks)
		}
		rate := 0.0
		if st.Busy > 0 && done > 0 {
			rate = done / st.Busy.Seconds()
			sumRate += rate
			nRate++
		}
		statuses[id] = core.Status{Rate: rate, MoveCost: st.MoveCost, InteractionCost: st.InterCost}
	}
	if nRate > 0 {
		mean := sumRate / float64(nRate)
		for _, id := range ids {
			if statuses[id].Rate == 0 && counts[id] == 0 {
				statuses[id].Rate = mean
			}
		}
	}
	return statuses
}

// weightedRound reports whether this round's decision should use the
// learned weights: the run is in learned mode and the model has actually
// left the uniform prior for the active units. Dense programs never leave
// it, so their decisions take the uniform-unit path bit for bit.
func weightedRound(e *engine) ([]int, bool) {
	if e.costMode != CostLearned || e.costModel == nil {
		return nil, false
	}
	var active []int
	for u := 0; u < e.own.Units(); u++ {
		if e.own.IsActive(u) {
			active = append(active, u)
		}
	}
	if e.costModel.UniformActive(active) {
		return nil, false
	}
	return active, true
}

// recordTrace appends the round's per-slave samples (Figure 9's series).
func recordTrace(e *engine, ids []int, statuses []core.Status, d core.Decision, phase int) {
	now := e.ep.Now()
	work := e.own.ActiveCounts()
	for _, id := range ids {
		e.res.Trace = append(e.res.Trace, Sample{
			Time:      now,
			Phase:     phase,
			Slave:     id,
			RawRate:   statuses[id].Rate,
			Filtered:  d.FilteredRates[id],
			Work:      work[id],
			SkipHooks: d.SkipHooks,
			Period:    d.Period,
		})
	}
}

// noteMoves records a decision's movement; under the hierarchy also the
// moves across group boundaries.
func noteMoves(e *engine, d core.Decision) {
	e.res.Moves += len(d.Moves)
	for _, mv := range d.Moves {
		e.res.UnitsMoved += len(mv.Units)
		if e.hier != nil && e.hier.part.GroupOf(mv.From) != e.hier.part.GroupOf(mv.To) {
			e.acct.hierCrossMoves++
			e.acct.hierCrossUnits += int64(len(mv.Units))
		}
	}
}
