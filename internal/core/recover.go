package core

import "fmt"

// Fault-tolerance support for the ownership map: rebuilding it from a
// replicated snapshot, expanding it when a node joins mid-run, and
// reassigning a dead slave's units to survivors. Reassignment follows the
// same movement discipline as load balancing (paper Figure 1): restricted
// (adjacent-only, block-preserving) when the distributed loop carries
// dependences, proportional otherwise.

// OwnershipFromMap reconstructs an ownership map from its raw
// representation (a checkpoint or an adoption message). The slices are
// copied.
func OwnershipFromMap(owner []int, active []bool, slaves int) *Ownership {
	if len(owner) != len(active) || slaves <= 0 {
		panic("core: invalid ownership snapshot")
	}
	for u, s := range owner {
		if s < 0 || s >= slaves {
			panic(fmt.Sprintf("core: unit %d owned by out-of-range slave %d", u, s))
		}
	}
	return &Ownership{
		slaves: slaves,
		owner:  append([]int(nil), owner...),
		active: append([]bool(nil), active...),
	}
}

// Snapshot returns the raw owner and active slices (copies), the inverse of
// OwnershipFromMap.
func (o *Ownership) Snapshot() (owner []int, active []bool) {
	return append([]int(nil), o.owner...), append([]bool(nil), o.active...)
}

// AddSlave extends the map with one more slave slot (elastic join). The new
// slave owns nothing; the balancer folds it into later redistributions. Its
// id — the new slot count minus one — places it at the right end of the
// block order, so restricted movement invariants are unaffected.
func (o *Ownership) AddSlave() int {
	o.slaves++
	return o.slaves - 1
}

// ReassignDead transfers every active unit owned by the dead slave to
// surviving slaves and returns the number of units transferred.
//
// With restricted movement the maximal run of adjacent dead slots around
// the dead slave is reassigned as one block: a single midpoint cut, the
// left part to the nearest surviving neighbor on the left, the right part
// to the one on the right (all of it when the run sits at either end) —
// preserving the contiguous block distribution that loop-carried
// dependences require (IsBlock stays true). Cutting each dead slot of a
// run on its own would interleave the two survivors' units; after the
// run's first call the calls for its other slots find nothing left.
//
// With unrestricted movement the units are apportioned across survivors
// proportionally to weights (last known rates; nil or all-zero weights
// fall back to an even split).
//
// alive[s] reports whether slave s survives; alive[dead] must be false.
func ReassignDead(o *Ownership, dead int, restricted bool, weights []float64, alive []bool) (int, error) {
	if dead < 0 || dead >= o.slaves {
		return 0, fmt.Errorf("core: reassign of out-of-range slave %d", dead)
	}
	if len(alive) != o.slaves {
		return 0, fmt.Errorf("core: alive mask has %d slots, want %d", len(alive), o.slaves)
	}
	if alive[dead] {
		return 0, fmt.Errorf("core: slave %d still alive", dead)
	}
	var survivors []int
	for s, a := range alive {
		if a {
			survivors = append(survivors, s)
		}
	}
	if len(survivors) == 0 {
		return 0, fmt.Errorf("core: no survivors to adopt slave %d's units", dead)
	}
	// Inactive owned units carry no remaining work but still hold final data
	// for the gather (e.g. retired LU rows); park them with the nearest
	// survivor. IsBlock only constrains active units, so this is always safe.
	for _, u := range o.Owned(dead) {
		if !o.active[u] {
			o.owner[u] = nearestAlive(survivors, dead)
		}
	}

	if restricted {
		// Adjacent-only: widen to the run of dead slots [lo,hi] and split
		// its contiguous block at the midpoint between the surviving
		// neighbors on each side (-1: the run reaches that end).
		lo, hi := dead, dead
		for lo > 0 && !alive[lo-1] {
			lo--
		}
		for hi < o.slaves-1 && !alive[hi+1] {
			hi++
		}
		left, right := lo-1, hi+1
		if right == o.slaves {
			right = -1
		}
		var units []int
		for u, s := range o.owner {
			if o.active[u] && s >= lo && s <= hi {
				units = append(units, u)
			}
		}
		cut := len(units) / 2
		switch {
		case left == -1:
			cut = 0 // no left neighbor: everything goes right
		case right == -1:
			cut = len(units) // no right neighbor: everything goes left
		}
		for i, u := range units {
			if i < cut {
				o.owner[u] = left
			} else {
				o.owner[u] = right
			}
		}
		return len(units), nil
	}

	units := o.OwnedActive(dead)
	if len(units) == 0 {
		return 0, nil
	}
	// Unrestricted: proportional apportionment by weight.
	w := make([]float64, len(survivors))
	for i, s := range survivors {
		if weights != nil && s < len(weights) && weights[s] > 0 {
			w[i] = weights[s]
		}
	}
	share := apportion(len(units), w)
	i := 0
	for si, s := range survivors {
		for k := 0; k < share[si]; k++ {
			o.owner[units[i]] = s
			i++
		}
	}
	return len(units), nil
}

// nearestAlive returns the survivor closest to s (ties broken low).
func nearestAlive(survivors []int, s int) int {
	best := survivors[0]
	for _, v := range survivors[1:] {
		dv, db := v-s, best-s
		if dv < 0 {
			dv = -dv
		}
		if db < 0 {
			db = -db
		}
		if dv < db {
			best = v
		}
	}
	return best
}

// apportionAlive is apportion restricted to alive slots: dead slots always
// receive zero, and the all-zero-rates fallback splits evenly among the
// alive slots only.
func apportionAlive(total int, rates []float64, alive []bool) []int {
	if alive == nil {
		return apportion(total, rates)
	}
	var ids []int
	for s := range rates {
		if alive[s] {
			ids = append(ids, s)
		}
	}
	sub := make([]float64, len(ids))
	for i, s := range ids {
		sub[i] = rates[s]
	}
	share := apportion(total, sub)
	out := make([]int, len(rates))
	for i, s := range ids {
		out[s] = share[i]
	}
	return out
}
