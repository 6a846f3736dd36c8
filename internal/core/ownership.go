package core

import (
	"fmt"
	"sort"
)

// Ownership tracks which slave owns each work unit (distributed-loop
// iteration / data slice) and which units are still active. It is the
// master's authoritative "index array": the paper notes that once data can
// move at run time, processors can no longer compute data locations from
// local information, so the master maintains the global map and slaves keep
// local copies updated by the instructions they receive.
type Ownership struct {
	slaves int
	owner  []int  // unit -> owning slave
	active []bool // unit -> has remaining work
}

// NewBlockOwnership distributes units 0..units-1 across slaves in
// contiguous blocks as evenly as possible (the standard initial BLOCK
// distribution). All units start active.
func NewBlockOwnership(units, slaves int) *Ownership {
	if units < 0 || slaves <= 0 {
		panic("core: invalid ownership shape")
	}
	o := &Ownership{
		slaves: slaves,
		owner:  make([]int, units),
		active: make([]bool, units),
	}
	for u := 0; u < units; u++ {
		o.owner[u] = u * slaves / units
		o.active[u] = true
	}
	return o
}

// Clone deep-copies the ownership map.
func (o *Ownership) Clone() *Ownership {
	return &Ownership{
		slaves: o.slaves,
		owner:  append([]int(nil), o.owner...),
		active: append([]bool(nil), o.active...),
	}
}

// Slaves returns the number of slaves.
func (o *Ownership) Slaves() int { return o.slaves }

// Units returns the total number of units (active and inactive).
func (o *Ownership) Units() int { return len(o.owner) }

// OwnerOf returns the slave owning the unit.
func (o *Ownership) OwnerOf(unit int) int { return o.owner[unit] }

// IsActive reports whether the unit still has remaining work.
func (o *Ownership) IsActive(unit int) bool { return o.active[unit] }

// Deactivate marks a unit as having no remaining work (LU's completed
// columns). Inactive units keep their owner but are never moved.
func (o *Ownership) Deactivate(unit int) { o.active[unit] = false }

// RetireOutside deactivates every unit outside [lo, hi): the master's
// mirror of the slave loop structure retiring completed work (§4.7), and
// each slave applying the same phase to its copy.
func (o *Ownership) RetireOutside(lo, hi int) {
	for u := range o.active {
		if u < lo || u >= hi {
			o.active[u] = false
		}
	}
}

// ActiveCounts returns the number of active units per slave.
func (o *Ownership) ActiveCounts() []int {
	counts := make([]int, o.slaves)
	for u, s := range o.owner {
		if o.active[u] {
			counts[s]++
		}
	}
	return counts
}

// ActiveTotal returns the number of active units.
func (o *Ownership) ActiveTotal() int {
	n := 0
	for u := range o.owner {
		if o.active[u] {
			n++
		}
	}
	return n
}

// OwnedActive returns the active units owned by the slave, ascending.
func (o *Ownership) OwnedActive(slave int) []int {
	var out []int
	for u, s := range o.owner {
		if s == slave && o.active[u] {
			out = append(out, u)
		}
	}
	return out
}

// Owned returns all units owned by the slave (active or not), ascending.
func (o *Ownership) Owned(slave int) []int {
	var out []int
	for u, s := range o.owner {
		if s == slave {
			out = append(out, u)
		}
	}
	return out
}

// Apply transfers the units listed in the move to the destination slave.
// It verifies that every unit is active and currently owned by move.From.
func (o *Ownership) Apply(m Move) error {
	for _, u := range m.Units {
		if u < 0 || u >= len(o.owner) {
			return fmt.Errorf("core: move of out-of-range unit %d", u)
		}
		if !o.active[u] {
			return fmt.Errorf("core: move of inactive unit %d", u)
		}
		if o.owner[u] != m.From {
			return fmt.Errorf("core: unit %d owned by %d, not %d", u, o.owner[u], m.From)
		}
	}
	for _, u := range m.Units {
		o.owner[u] = m.To
	}
	return nil
}

// Move instructs the transfer of specific work units (and their data) from
// one slave directly to another.
type Move struct {
	From  int
	To    int
	Units []int
}

func (m Move) String() string {
	return fmt.Sprintf("move %d units %v: %d -> %d", len(m.Units), m.Units, m.From, m.To)
}

// apportion computes integer target counts proportional to rates, summing
// to total, using the largest-remainder method. Zero or negative rates get
// no work unless every rate is non-positive, in which case the split is
// even.
func apportion(total int, rates []float64) []int {
	n := len(rates)
	out := make([]int, n)
	if n == 0 {
		return out // a group whose every member is dead holds nothing
	}
	sum := 0.0
	for _, r := range rates {
		if r > 0 {
			sum += r
		}
	}
	if sum <= 0 {
		for i := range out {
			out[i] = total / n
		}
		for i := 0; i < total%n; i++ {
			out[i]++
		}
		return out
	}
	type rem struct {
		idx  int
		frac float64
	}
	assigned := 0
	rems := make([]rem, 0, n)
	for i, r := range rates {
		if r < 0 {
			r = 0
		}
		exact := float64(total) * r / sum
		base := int(exact)
		out[i] = base
		assigned += base
		rems = append(rems, rem{i, exact - float64(base)})
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	for i := 0; assigned < total; i++ {
		out[rems[i%n].idx]++
		assigned++
	}
	return out
}

// movesRestricted computes adjacent-only moves that turn the current block
// distribution of active units into one matching targetCounts, preserving
// contiguity (paper Figure 1b). Moves are emitted in an order slaves can
// execute directly: leftward flows right-to-left, then rightward flows
// left-to-right, so a forwarding slave always receives pass-through units
// before sending them on. When some slots are dead (alive non-nil), boundary
// flows are attributed to adjacent *alive* slaves, never routed through a
// dead slot; dead slots must have target 0.
func movesRestricted(o *Ownership, targetCounts []int, alive []bool) []Move {
	var ids []int
	for s := 0; s < o.slaves; s++ {
		if alive == nil || alive[s] {
			ids = append(ids, s)
		} else if targetCounts[s] != 0 {
			panic(fmt.Sprintf("core: dead slave %d has target %d", s, targetCounts[s]))
		}
	}
	activeUnits := make([]int, 0, len(o.owner))
	for u := range o.owner {
		if o.active[u] {
			activeUnits = append(activeUnits, u)
		}
	}
	cur := o.ActiveCounts()
	n := len(ids)
	curPrefix := make([]int, n+1)
	tgtPrefix := make([]int, n+1)
	for i, s := range ids {
		curPrefix[i+1] = curPrefix[i] + cur[s]
		tgtPrefix[i+1] = tgtPrefix[i] + targetCounts[s]
	}
	var leftward, rightward []Move
	for b := 0; b < n-1; b++ {
		c, t := curPrefix[b+1], tgtPrefix[b+1]
		switch {
		case t > c:
			units := append([]int(nil), activeUnits[c:t]...)
			leftward = append(leftward, Move{From: ids[b+1], To: ids[b], Units: units})
		case c > t:
			units := append([]int(nil), activeUnits[t:c]...)
			rightward = append(rightward, Move{From: ids[b], To: ids[b+1], Units: units})
		}
	}
	for i, j := 0, len(leftward)-1; i < j; i, j = i+1, j-1 {
		leftward[i], leftward[j] = leftward[j], leftward[i]
	}
	return append(leftward, rightward...)
}

// reachableTargets is targetCounts as nearly as restricted movement may
// realize them. Inactive units do not move, and a distributed loop's
// neighbours may still read them (a loop whose range starts past the first
// slave's block), so no active unit may cross one: an active unit ends on
// no slave before the owner of an inactive unit below it, and on none
// after the owner of one above it. Otherwise the k-th active unit ends
// where the target prefix covers k, as movesRestricted places it.
func reachableTargets(o *Ownership, targetCounts []int, alive []bool) []int {
	pos := make([]int, o.slaves) // a slave's place among the alive; -1 if dead
	var ids []int
	for s := range pos {
		pos[s] = -1
		if alive == nil || alive[s] {
			pos[s] = len(ids)
			ids = append(ids, s)
		}
	}
	n := len(ids)
	final := make([]int, len(o.owner)) // an active unit's place
	k, i, end, floor := 0, 0, targetCounts[ids[0]], 0
	for u, s := range o.owner {
		switch {
		case o.active[u]:
			for i < n-1 && k >= end {
				i++
				end += targetCounts[ids[i]]
			}
			final[u], k = max(i, floor), k+1
		case pos[s] >= 0:
			floor = pos[s]
		}
	}
	out := make([]int, len(targetCounts))
	ceil := n - 1
	for u := len(o.owner) - 1; u >= 0; u-- {
		if p := pos[o.owner[u]]; o.active[u] {
			out[ids[min(final[u], ceil)]]++
		} else if p >= 0 {
			ceil = p
		}
	}
	return out
}

// movesUnrestricted computes direct moves from surplus slaves to deficit
// slaves (paper Figure 1a). Surplus slaves give up their highest-numbered
// active units first.
func movesUnrestricted(o *Ownership, targetCounts []int) []Move {
	cur := o.ActiveCounts()
	type entry struct {
		slave int
		n     int
	}
	var surplus, deficit []entry
	for s := 0; s < o.slaves; s++ {
		d := cur[s] - targetCounts[s]
		if d > 0 {
			surplus = append(surplus, entry{s, d})
		} else if d < 0 {
			deficit = append(deficit, entry{s, -d})
		}
	}
	var moves []Move
	di := 0
	for _, sp := range surplus {
		owned := o.OwnedActive(sp.slave)
		// Give away from the top of the owned list.
		give := owned[len(owned)-sp.n:]
		for len(give) > 0 && di < len(deficit) {
			take := len(give)
			if take > deficit[di].n {
				take = deficit[di].n
			}
			moves = append(moves, Move{
				From:  sp.slave,
				To:    deficit[di].slave,
				Units: append([]int(nil), give[:take]...),
			})
			give = give[take:]
			deficit[di].n -= take
			if deficit[di].n == 0 {
				di++
			}
		}
	}
	return moves
}
