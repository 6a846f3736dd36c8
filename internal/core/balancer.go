package core

import (
	"fmt"
	"math"
	"time"
)

// Config controls the load-balancing algorithm. The zero value is not
// usable; see DefaultConfig.
type Config struct {
	// Slaves is the number of worker processors.
	Slaves int
	// Restricted selects adjacent-only, block-preserving movement (needed
	// when the distributed loop carries dependences, Figure 1b).
	Restricted bool
	// MinImprovement is the projected-improvement threshold below which no
	// movement instructions are generated (paper: 10%). Zero disables it.
	MinImprovement float64
	// DisableFilter bypasses rate filtering (ablation).
	DisableFilter bool
	// DisableProfitability bypasses the profitability determination
	// (ablation).
	DisableProfitability bool
	// Quantum is the OS scheduling quantum on the slaves.
	Quantum time.Duration
	// MaxSkip caps the number of hooks skipped between interactions.
	MaxSkip int
}

// DefaultConfig returns the paper's parameter choices.
func DefaultConfig(slaves int, restricted bool) Config {
	return Config{
		Slaves:         slaves,
		Restricted:     restricted,
		MinImprovement: 0.10,
		Quantum:        100 * time.Millisecond,
		MaxSkip:        50,
	}
}

// filterMinWeight and filterMaxWeight bound the trend-adaptive sample
// weight of every slave's rate filter.
const filterMinWeight, filterMaxWeight = 0.25, 1.0

// Status is one slave's report at a load-balancing point.
type Status struct {
	// Rate is the measured computation rate in work units per second since
	// the previous report.
	Rate float64
	// MoveCost is the measured duration of the last work movement this
	// slave performed (0 if none since the previous report).
	MoveCost time.Duration
	// InteractionCost is the measured cost of the status/instruction
	// exchange itself.
	InteractionCost time.Duration
}

// Decision is the master's output for one load-balancing phase.
type Decision struct {
	// Moves are the work transfers to perform (empty if balanced or
	// suppressed).
	Moves []Move
	// SkipHooks tells slaves how many hook instances to skip before the
	// next interaction.
	SkipHooks int
	// Period is the target time between load balancings.
	Period time.Duration
	// FilteredRates are the post-filter per-slave rates used.
	FilteredRates []float64
	// Improvement is the projected fractional reduction in completion time
	// of the Targets distribution over the current one.
	Improvement float64
	// Suppressed explains why moves were withheld: "", "below-threshold"
	// (no group's improvement reached the threshold), or "not-profitable".
	Suppressed string
	// Targets is the per-slave target active-unit allocation. When some
	// but not all groups of a grouped step are below the threshold, the
	// held groups' entries are their current counts.
	Targets []int
}

// Balancer is the master-side decision engine. It owns the authoritative
// Ownership map; the run-time system feeds it slave statuses and forwards
// the resulting moves.
type Balancer struct {
	cfg      Config
	own      *Ownership
	filters  []*RateFilter
	costs    *MoveCostModel
	alive    []bool        // nil: all slots alive (no failures so far)
	lastMove time.Duration // most recent measured movement cost
	lastInt  time.Duration // most recent measured interaction cost
}

// NewBalancer creates a balancer over an initial distribution. The cost
// model prices candidate moves for the profitability determination.
func NewBalancer(cfg Config, own *Ownership, costs *MoveCostModel) *Balancer {
	if cfg.Slaves != own.Slaves() {
		panic("core: config/ownership slave count mismatch")
	}
	b := &Balancer{cfg: cfg, own: own, costs: costs}
	for i := 0; i < cfg.Slaves; i++ {
		b.filters = append(b.filters, NewRateFilter(filterMinWeight, filterMaxWeight))
	}
	return b
}

// Ownership exposes the balancer's authoritative distribution map.
func (b *Balancer) Ownership() *Ownership { return b.own }

// Deactivate marks a unit as having no remaining work.
func (b *Balancer) Deactivate(unit int) { b.own.Deactivate(unit) }

// SetAlive installs the liveness mask used after a failure: dead slots are
// excluded from target allocations and never appear as move endpoints, and
// their (stale) rate reports are ignored. Passing nil restores the
// no-failures behavior. The mask is also grown implicitly by AddSlave via
// Grow.
func (b *Balancer) SetAlive(alive []bool) {
	if alive == nil {
		b.alive = nil
		return
	}
	if len(alive) != b.cfg.Slaves {
		panic("core: alive mask size mismatch")
	}
	b.alive = append([]bool(nil), alive...)
}

// Grow extends the balancer (and its ownership map) to cover newly joined
// slave slots. New slots start alive with a fresh rate filter and zero
// owned units.
func (b *Balancer) Grow(slaves int) {
	for b.cfg.Slaves < slaves {
		b.own.AddSlave()
		b.cfg.Slaves++
		b.filters = append(b.filters, NewRateFilter(filterMinWeight, filterMaxWeight))
		if b.alive != nil {
			b.alive = append(b.alive, true)
		}
	}
}

// Grouping splits the slots into contiguous groups for StepGrouped: every
// group's allotment is apportioned over its own members only, so the groups
// balance independently except on exchange rounds. The zero value is the
// paper's single master — one group over every slot.
type Grouping struct {
	// Starts holds each group's first slot, ascending from 0; the last
	// group runs to the final slot, so slots that join later fold into it.
	Starts []int
	// Exchange, when non-nil, makes this an exchange round: it is handed
	// every group's aggregate load and returns the amount to shift across
	// each of the len(Starts)-1 group boundaries, positive meaning left to
	// right — whole units without a weight vector, weight with one. Groups
	// joined by a non-zero flow honor their new allotments regardless of
	// the improvement threshold, and the round skips the profitability
	// test: a shift's benefit accrues over the whole exchange interval,
	// not one balancing period.
	Exchange func(loads []GroupLoad) []float64
}

// GroupLoad is one group's aggregate state on an exchange round.
type GroupLoad struct {
	Rate   float64 // sum of the members' filtered rates
	Units  int     // active units the members own
	Weight float64 // their total weight (equal to Units without a weight vector)
}

// Step runs one load-balancing phase: filter rates, compute the
// proportional target allocation, apply the improvement threshold and
// profitability determination, update ownership, and derive the next
// period and hook-skip count. unitsPerHook is the total work (active
// units across all slaves) executed between consecutive hook instances.
func (b *Balancer) Step(statuses []Status, unitsPerHook float64) Decision {
	return b.StepGrouped(statuses, unitsPerHook, nil, Grouping{})
}

// StepWeighted is Step under a per-unit cost model: weights holds one
// relative cost per unit (indexed like the ownership map), status rates are
// in weight units per second, and unitsPerHook is likewise weighted. Target
// allocations equalize weighted completion time instead of unit counts.
func (b *Balancer) StepWeighted(statuses []Status, unitsPerHook float64, weights []float64) Decision {
	if weights == nil {
		panic("core: StepWeighted requires a weight vector")
	}
	return b.StepGrouped(statuses, unitsPerHook, weights, Grouping{})
}

// StepGrouped is the one balancing procedure; Step and StepWeighted are its
// single-group cases. It runs in three phases:
//
//  1. observe: filter the reported rates and derive period and hook skip
//     (global, so every slave keeps the same contact cadence);
//  2. per group, compute the members' targets from the group's allotment —
//     what it holds, shifted by the exchange flows — and hold the group
//     still when the projected improvement is below the threshold and no
//     flow reached it;
//  3. generate the moves for the combined target vector in one pass (groups
//     are contiguous slot ranges, so intra-group rebalancing and
//     cross-boundary shifts come out as one consistent schedule), apply
//     the profitability test, and update ownership.
//
// weights is nil for uniform units, or one relative cost per unit.
func (b *Balancer) StepGrouped(statuses []Status, unitsPerHook float64, weights []float64, grp Grouping) Decision {
	d := b.observe(statuses, unitsPerHook)
	if b.own.ActiveTotal() == 0 {
		return d
	}
	rates := d.FilteredRates
	counts := b.own.ActiveCounts()
	load := ActiveWeightTotals(b.own, weights)

	bounds := b.groupBounds(grp.Starts)
	groups := len(bounds) - 1
	loads := b.groupLoads(bounds, counts, rates, weights)
	allot := make([]float64, groups)
	for g, l := range loads {
		allot[g] = l.Weight
	}
	exchange := grp.Exchange != nil && groups > 1
	var flows []float64
	if exchange {
		flows = grp.Exchange(loads)
		for i, f := range flows {
			allot[i] -= f
			allot[i+1] += f
			if allot[i] < 0 || allot[i+1] < 0 {
				panic(fmt.Sprintf("core: exchange flow %g across boundary %d overdraws a group", f, i))
			}
		}
	}

	// Groups joined by a flow are planned as one range and always act; every
	// other group is planned alone and held still below the threshold.
	d.Targets = make([]int, b.cfg.Slaves)
	tgtLoad := make([]float64, b.cfg.Slaves)
	var held []int
	for g := 0; g < groups; {
		h := g
		for h < len(flows) && flows[h] != 0 {
			h++
		}
		lo, hi := bounds[g], bounds[h+1]
		b.rangeTargets(bounds[g:h+2], allot[g:h+1], rates, weights, d.Targets, tgtLoad)
		if h == g {
			impr := improvement(load[lo:hi], tgtLoad[lo:hi], rates[lo:hi])
			if impr < b.cfg.MinImprovement || impr <= 0 {
				held = append(held, g)
			}
		}
		g = h + 1
	}
	d.Improvement = improvement(load, tgtLoad, rates)
	if len(held) == groups {
		d.Suppressed = "below-threshold"
		return d
	}
	if len(held) > 0 {
		for _, g := range held {
			lo, hi := bounds[g], bounds[g+1]
			copy(d.Targets[lo:hi], counts[lo:hi])
			copy(tgtLoad[lo:hi], load[lo:hi])
		}
		d.Improvement = improvement(load, tgtLoad, rates)
	}

	var moves []Move
	if b.cfg.Restricted {
		moves = movesRestricted(b.own, d.Targets, b.alive)
	} else {
		// Unrestricted movement is dead-slot safe as is: a dead slot has
		// zero owned units and a zero target, so it is neither surplus nor
		// deficit and never becomes a move endpoint.
		moves = movesUnrestricted(b.own, d.Targets)
	}
	if len(moves) == 0 {
		return d
	}

	if !b.cfg.DisableProfitability && !exchange {
		cost := b.costs.EstimateMoves(moves)
		benefit := time.Duration(d.Improvement * float64(d.Period))
		if cost > benefit {
			d.Suppressed = "not-profitable"
			return d
		}
	}

	for _, m := range moves {
		if err := b.own.Apply(m); err != nil {
			// Internal invariant violation: the move generators only emit
			// moves consistent with the ownership map.
			panic(err)
		}
	}
	d.Moves = moves
	return d
}

// observe is phase 1: fold the statuses into the per-slot rate filters and
// the measured movement/interaction costs, and derive the period and
// hook-skip count from them.
func (b *Balancer) observe(statuses []Status, unitsPerHook float64) Decision {
	if len(statuses) != b.cfg.Slaves {
		panic("core: status count mismatch")
	}
	rates := make([]float64, b.cfg.Slaves)
	sumRate := 0.0
	for i, st := range statuses {
		if b.alive != nil && !b.alive[i] {
			continue // dead slot: rate stays 0, filter state frozen
		}
		if b.cfg.DisableFilter {
			rates[i] = st.Rate
		} else {
			rates[i] = b.filters[i].Update(st.Rate)
		}
		if rates[i] < 0 {
			rates[i] = 0
		}
		sumRate += rates[i]
		if st.MoveCost > 0 {
			b.lastMove = st.MoveCost
		}
		if st.InteractionCost > 0 {
			b.lastInt = st.InteractionCost
		}
	}
	period := TargetPeriod(PeriodInputs{
		MoveCost:        b.lastMove,
		InteractionCost: b.lastInt,
		Quantum:         b.cfg.Quantum,
	})
	var hookInterval time.Duration
	if sumRate > 0 && unitsPerHook > 0 {
		hookInterval = time.Duration(unitsPerHook / sumRate * float64(time.Second))
	}
	return Decision{
		Period:        period,
		SkipHooks:     HookSkip(period, hookInterval, b.cfg.MaxSkip),
		FilteredRates: rates,
	}
}

// groupBounds turns group start slots into range bounds: group g covers
// slots [bounds[g], bounds[g+1]). No starts means one group over every slot.
func (b *Balancer) groupBounds(starts []int) []int {
	if len(starts) == 0 {
		return []int{0, b.cfg.Slaves}
	}
	for g, s := range starts {
		if (g == 0 && s != 0) || (g > 0 && s <= starts[g-1]) || s >= b.cfg.Slaves {
			panic(fmt.Sprintf("core: group starts %v do not partition %d slots", starts, b.cfg.Slaves))
		}
	}
	return append(append([]int(nil), starts...), b.cfg.Slaves)
}

// groupLoads aggregates each group's rate, active units and weight. Weight
// is summed in unit order, the order the weighted split accumulates in.
func (b *Balancer) groupLoads(bounds, counts []int, rates, weights []float64) []GroupLoad {
	out := make([]GroupLoad, len(bounds)-1)
	groupOf := make([]int, b.cfg.Slaves)
	for g := range out {
		for s := bounds[g]; s < bounds[g+1]; s++ {
			groupOf[s] = g
			out[g].Rate += rates[s]
			out[g].Units += counts[s]
		}
		if weights == nil {
			out[g].Weight = float64(out[g].Units)
		}
	}
	if weights != nil {
		for u, s := range b.own.owner {
			if b.own.active[u] {
				out[groupOf[s]].Weight += weights[u]
			}
		}
	}
	return out
}

// rangeTargets is phase 2 for the slots of one or more consecutive groups
// (bounds has one more entry than allot): each group's allotment is shared
// out over its alive members in proportion to their rates — integer counts
// by largest remainder when units are uniform; weight shares otherwise,
// realized over the whole range by the prefix split (restricted) or the
// peel (unrestricted). It fills the range's slice of targets and of
// tgtLoad, the load each slot would then carry.
func (b *Balancer) rangeTargets(bounds []int, allot, rates, weights []float64, targets []int, tgtLoad []float64) {
	lo, hi := bounds[0], bounds[len(bounds)-1]
	alive := func(from, to int) []bool {
		if b.alive == nil {
			return nil
		}
		return b.alive[from:to]
	}
	if weights == nil {
		for g, a := range allot {
			from, to := bounds[g], bounds[g+1]
			copy(targets[from:to], apportionAlive(int(a), rates[from:to], alive(from, to)))
		}
		for s := lo; s < hi; s++ {
			tgtLoad[s] = float64(targets[s])
		}
		return
	}
	shares := make([]float64, 0, hi-lo)
	for g, a := range allot {
		from, to := bounds[g], bounds[g+1]
		shares = append(shares, weightShares(a, rates[from:to], alive(from, to))...)
	}
	var c []int
	var l []float64
	if b.cfg.Restricted {
		var unitW []float64
		for u, s := range b.own.owner {
			if b.own.active[u] && s >= lo && s < hi {
				unitW = append(unitW, weights[u])
			}
		}
		c, l = WeightedSplitRange(unitW, shares)
	} else {
		owned := make([][]int, hi-lo)
		for s := lo; s < hi; s++ {
			owned[s-lo] = b.own.OwnedActive(s)
		}
		c, l = WeightedPeelCounts(owned, weights, shares)
	}
	copy(targets[lo:hi], c)
	copy(tgtLoad[lo:hi], l)
}

// improvement is the projected fractional reduction in completion time of
// moving from the before loads to the after loads at the given rates.
func improvement(before, after, rates []float64) float64 {
	tb, ta := CompletionTimeWeighted(before, rates), CompletionTimeWeighted(after, rates)
	switch {
	case math.IsInf(tb, 1) && !math.IsInf(ta, 1):
		return 1
	case tb <= 0 || math.IsInf(ta, 1):
		return 0
	default:
		return 1 - ta/tb
	}
}
