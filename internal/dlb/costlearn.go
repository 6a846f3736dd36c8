package dlb

// Learned per-unit cost model. Slaves measure the busy time each contiguous
// block of owned units actually consumed and ship compact CostBlock
// summaries with their status reports; the master folds them into an EWMA
// weight per unit. Weights are relative to the run's mean unit cost (a
// fresh model is all ones, the dense-uniform prior), so a program whose
// units really are uniform keeps every weight at exactly 1.0 and the
// balancer stays on its uniform-unit path bit for bit.
//
// The UniformActive gate that selects that path is kept on purpose: handing
// the balancer weights ≡ 1.0 is not the same arithmetic as handing it none.
// Uniform units are rounded by largest remainder (ties to the lower slot);
// weighted shares are realized by the midpoint prefix split or the peel
// (core/weighted.go), which place the rounding slack differently — three
// equal slots over ten units come out 4/3/3 one way and 3/4/3 the other
// (core's TestUnitWeightsAreNotUniformArithmetic). Equal loads, different
// moves, so every dense schedule would shift.

// CostBlock summarizes the measured cost of a contiguous unit range
// [Lo, Hi): PerUnit is the mean busy seconds per unit over the range since
// the previous report.
type CostBlock struct {
	Lo, Hi  int
	PerUnit float64
}

const (
	// costEWMAAlpha is the per-report blend factor for unit weights.
	costEWMAAlpha = 0.5
	// costUniformSlack is the active max/min weight ratio (minus one) under
	// which the model is considered uniform and the uniform-unit balancer
	// path is used unchanged.
	costUniformSlack = 0.05
	// maxCostBlocks caps the number of blocks a slave ships per report.
	maxCostBlocks = 64
)

// UnitCostModel holds one learned relative weight per unit. The zero-value
// prior (weight 1 everywhere) encodes the dense-uniform assumption.
type UnitCostModel struct {
	w     []float64
	seen  []bool // unit has been covered by at least one report
	alpha float64
}

// NewUnitCostModel returns a model over `units` units with the uniform
// prior.
func NewUnitCostModel(units int) *UnitCostModel {
	w := make([]float64, units)
	for i := range w {
		w[i] = 1.0
	}
	return &UnitCostModel{w: w, seen: make([]bool, units), alpha: costEWMAAlpha}
}

// Weights exposes the per-unit weight vector (live; do not mutate).
func (m *UnitCostModel) Weights() []float64 { return m.w }

// Weight returns the learned relative cost of one unit.
func (m *UnitCostModel) Weight(u int) float64 { return m.w[u] }

// Observe folds one balancing round's pooled block reports into the model.
// Blocks are normalized by the pool's weighted-mean cost per unit, so
// weights are comparable *across* slaves — essential on block-correlated
// data, where each slave's own holdings look internally uniform and a
// per-report normalization would learn nothing. Pooling cannot fold
// machine speed into the weights because block costs are modeled charges
// (EstFlops × FlopCost), identical per flop on every slave. When every
// block in the pool carries the same PerUnit value the relative cost is
// exactly 1.0 for all covered units (no float division), preserving the
// uniform prior bit for bit on dense programs.
func (m *UnitCostModel) Observe(blocks []CostBlock) {
	if len(blocks) == 0 {
		return
	}
	uniform := true
	var units, weighted float64
	for _, b := range blocks {
		if b.PerUnit != blocks[0].PerUnit {
			uniform = false
		}
		n := float64(b.Hi - b.Lo)
		units += n
		weighted += n * b.PerUnit
	}
	if units <= 0 {
		return
	}
	mean := weighted / units
	for _, b := range blocks {
		rel := 1.0
		if !uniform && mean > 0 {
			rel = b.PerUnit / mean
		}
		for u := b.Lo; u < b.Hi && u < len(m.w); u++ {
			if u < 0 {
				continue
			}
			// The first measurement replaces the prior outright — with as
			// few as one or two balancing rounds, blending toward truth
			// from the uniform prior would leave the first (and possibly
			// only) decision half-blind. Later reports smooth by EWMA.
			if !m.seen[u] {
				m.w[u] = rel
				m.seen[u] = true
				continue
			}
			m.w[u] += m.alpha * (rel - m.w[u])
		}
	}
}

// UniformActive reports whether the weights over the given active units are
// uniform within costUniformSlack. An empty active set is uniform.
func (m *UnitCostModel) UniformActive(active []int) bool {
	if len(active) == 0 {
		return true
	}
	lo, hi := m.w[active[0]], m.w[active[0]]
	for _, u := range active[1:] {
		if m.w[u] < lo {
			lo = m.w[u]
		}
		if m.w[u] > hi {
			hi = m.w[u]
		}
	}
	if lo <= 0 {
		return false
	}
	return hi/lo <= 1+costUniformSlack
}

// ActiveMean is the mean weight over the given active units (1.0 when the
// set is empty, matching the prior).
func (m *UnitCostModel) ActiveMean(active []int) float64 {
	if len(active) == 0 {
		return 1.0
	}
	sum := 0.0
	for _, u := range active {
		sum += m.w[u]
	}
	return sum / float64(len(active))
}

// WeightDone converts a block report into weighted work: the model-weighted
// unit count the report's ranges represent. Used to turn a slave's raw
// "units done" into weighted units so measured rates compare machines, not
// data.
func (m *UnitCostModel) WeightDone(blocks []CostBlock) float64 {
	total := 0.0
	for _, b := range blocks {
		for u := b.Lo; u < b.Hi; u++ {
			if u >= 0 && u < len(m.w) {
				total += m.w[u]
			}
		}
	}
	return total
}
