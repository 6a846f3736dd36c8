package core

import "time"

// MoveCostModel estimates the cost of moving work units between slaves as
// fixed + perUnit·n. It is a prior, not a measurement: the run-time seeds it
// once from the link parameters (per-message latency and overhead, one
// unit's bytes over the bandwidth — internal/dlb's balancerSetup) and the
// profitability determination prices candidate moves with it. The movement
// costs slaves measure and report (Status.MoveCost, §4.3 "the cost of moving
// work is measured each time work is moved") drive the balancing period
// only.
type MoveCostModel struct {
	fixed   time.Duration
	perUnit time.Duration
}

// NewMoveCostModel creates a model from the fixed per-transfer cost and the
// per-unit cost.
func NewMoveCostModel(fixed, perUnit time.Duration) *MoveCostModel {
	return &MoveCostModel{fixed: fixed, perUnit: perUnit}
}

// Estimate predicts the cost of moving n units in one transfer.
func (m *MoveCostModel) Estimate(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return m.fixed + time.Duration(n)*m.perUnit
}

// EstimateMoves predicts the total cost of a set of transfers.
func (m *MoveCostModel) EstimateMoves(moves []Move) time.Duration {
	var total time.Duration
	for _, mv := range moves {
		total += m.Estimate(len(mv.Units))
	}
	return total
}

// PeriodInputs are the measured costs that bound the load-balancing period
// from below (paper Figure 4).
type PeriodInputs struct {
	// MoveCost is the measured cost of the last work movement; the period
	// must be at least 10x smaller... i.e. at least 0.1 x this cost.
	MoveCost time.Duration
	// InteractionCost is the cost of one status/instruction exchange with
	// the master; the period must be at least 20x it so overhead stays low.
	InteractionCost time.Duration
	// Quantum is the OS scheduling time slice; the period must cover at
	// least 5 quanta (min 500 ms) so context-switching effects average out.
	Quantum time.Duration
}

// TargetPeriod returns the load-balancing period: the largest of the three
// lower bounds of Figure 4 (0.1 x movement cost, 20 x interaction cost,
// max(5 x quantum, 500 ms)).
func TargetPeriod(in PeriodInputs) time.Duration {
	p := 500 * time.Millisecond
	if q := 5 * in.Quantum; q > p {
		p = q
	}
	if m := in.MoveCost / 10; m > p {
		p = m
	}
	if i := 20 * in.InteractionCost; i > p {
		p = i
	}
	return p
}

// HookSkip converts a target period into the number of hook instances to
// skip before the next load-balancing interaction. hookInterval is the
// predicted time between consecutive hook visits (work between hooks
// divided by the aggregate computation rate). At least every hook is
// honored (skip 0) and the skip is capped so a slow system still balances.
func HookSkip(period, hookInterval time.Duration, maxSkip int) int {
	if hookInterval <= 0 {
		return 0
	}
	visits := int((period + hookInterval/2) / hookInterval)
	if visits < 1 {
		visits = 1
	}
	skip := visits - 1
	if maxSkip >= 0 && skip > maxSkip {
		skip = maxSkip
	}
	return skip
}

// GrainSize returns the number of iterations per strip-mined block so that
// one block costs about factor x quantum of computation (the paper uses
// 150 ms = 1.5 quanta, measured at startup). timePerIter is the measured
// cost of one iteration.
func GrainSize(timePerIter, quantum time.Duration, factor float64) int {
	if timePerIter <= 0 {
		return 1
	}
	target := time.Duration(factor * float64(quantum))
	g := int(target / timePerIter)
	if g < 1 {
		g = 1
	}
	return g
}
