package core

import "math"

// Weighted apportionment: the uniform-unit assumption retired. The
// uniform-unit path treats every active unit as equally expensive, so target
// *counts* proportional to rates equalize completion times. When a learned
// per-unit cost model is in play (internal/dlb's UnitCostModel), units carry
// relative weights and the balancer must equalize *weighted* completion
// times instead: each slot's share of the total active weight — not of the
// unit count — tracks its measured rate. The functions here compute target
// unit counts whose projected weighted shares do that, in both movement
// disciplines; Balancer.rangeTargets calls them only when it is handed a
// weight vector, so uniform-cost runs keep the largest-remainder arithmetic.

// ActiveWeightTotals returns each slot's aggregate weight of active owned
// units. A nil weight vector counts units (weight 1 each).
func ActiveWeightTotals(o *Ownership, w []float64) []float64 {
	out := make([]float64, o.slaves)
	for u, s := range o.owner {
		if !o.active[u] {
			continue
		}
		if w == nil {
			out[s]++
		} else {
			out[s] += w[u]
		}
	}
	return out
}

// CompletionTimeWeighted is the projected time for the slowest slot to
// finish its weighted allocation at the given rates (rates in weight units
// per second): max over slots of weight/rate, +Inf when a slot holds weight
// but measures no rate.
func CompletionTimeWeighted(weights, rates []float64) float64 {
	worst := 0.0
	for i := range weights {
		if weights[i] <= 0 {
			continue
		}
		if rates[i] <= 0 {
			return math.Inf(1)
		}
		if t := weights[i] / rates[i]; t > worst {
			worst = t
		}
	}
	return worst
}

// weightShares converts rates into desired weight allocations summing to
// total: share_i = total * rate_i / sum(rates), dead or non-positive-rate
// slots getting zero. When no alive slot has a positive rate the total is
// split evenly over the alive slots, as apportion does with counts.
func weightShares(total float64, rates []float64, alive []bool) []float64 {
	sum, n := 0.0, 0
	for i, r := range rates {
		if alive != nil && !alive[i] {
			continue
		}
		n++
		if r > 0 {
			sum += r
		}
	}
	out := make([]float64, len(rates))
	for i, r := range rates {
		if alive != nil && !alive[i] {
			continue
		}
		switch {
		case sum <= 0:
			out[i] = total / float64(n)
		case r > 0:
			out[i] = total * r / sum
		}
	}
	return out
}

// WeightedSplitRange splits a contiguous run of units (given by their
// weights, in unit order) into per-slot counts whose cumulative weights
// track the desired shares: unit k goes to the first slot whose cumulative
// share cutoff covers the unit's weight midpoint. This is the restricted-
// movement analogue of Apportion — the resulting counts feed the same
// prefix-boundary move generation, so contiguity is preserved. Returns the
// counts and each slot's projected weight.
func WeightedSplitRange(unitW []float64, shares []float64) (counts []int, tgtW []float64) {
	n := len(shares)
	counts = make([]int, n)
	tgtW = make([]float64, n)
	if n == 0 {
		return counts, tgtW
	}
	cut := make([]float64, n)
	c := 0.0
	for i, s := range shares {
		c += s
		cut[i] = c
	}
	i := 0
	acc := 0.0
	for _, wu := range unitW {
		mid := acc + wu/2
		for i < n-1 && mid > cut[i] {
			i++
		}
		counts[i]++
		tgtW[i] += wu
		acc += wu
	}
	return counts, tgtW
}

// WeightedPeelCounts computes per-slot target counts for unrestricted
// movement: slots over their desired weight peel their highest-numbered
// active units (exactly the units MovesUnrestricted will take) until
// dropping below the desired weight by at most half the last unit, and the
// peeled pool is dealt to under-weight slots in id order. owned lists each
// slot's active units ascending; w is the global per-unit weight vector.
func WeightedPeelCounts(owned [][]int, w []float64, shares []float64) (counts []int, tgtW []float64) {
	n := len(owned)
	counts = make([]int, n)
	tgtW = make([]float64, n)
	var pool []int
	for s := 0; s < n; s++ {
		units := owned[s]
		counts[s] = len(units)
		for _, u := range units {
			tgtW[s] += w[u]
		}
		// Peel from the top while giving the unit away brings us closer to
		// the desired weight than keeping it.
		for k := len(units) - 1; k >= 0; k-- {
			wu := w[units[k]]
			if tgtW[s]-wu/2 <= shares[s] {
				break
			}
			pool = append(pool, units[k])
			tgtW[s] -= wu
			counts[s]--
		}
	}
	// Deal the pool to deficit slots in id order; the remainder (rounding
	// slack) lands on the last slot still below its share, or the final
	// slot with a positive share.
	d := 0
	last := -1
	for i := range shares {
		if shares[i] > 0 {
			last = i
		}
	}
	for _, u := range pool {
		wu := w[u]
		for d < n && (shares[d] <= 0 || tgtW[d]+wu/2 > shares[d]) {
			d++
		}
		t := d
		if t >= n {
			t = last
			if t < 0 {
				t = n - 1
			}
		}
		counts[t]++
		tgtW[t] += wu
	}
	return counts, tgtW
}
