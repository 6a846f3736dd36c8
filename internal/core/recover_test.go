package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestOwnershipFromMapRoundTrip(t *testing.T) {
	o := NewBlockOwnership(17, 4)
	o.Deactivate(3)
	o.Deactivate(11)
	owner, active := o.Snapshot()
	r := OwnershipFromMap(owner, active, 4)
	for u := 0; u < 17; u++ {
		if r.OwnerOf(u) != o.OwnerOf(u) || r.IsActive(u) != o.IsActive(u) {
			t.Fatalf("unit %d: got (%d,%v), want (%d,%v)",
				u, r.OwnerOf(u), r.IsActive(u), o.OwnerOf(u), o.IsActive(u))
		}
	}
	// The snapshot is a copy, not an alias.
	owner[0] = 3
	if r.OwnerOf(0) == 3 && o.OwnerOf(0) != 3 {
		t.Fatal("snapshot aliases the map")
	}
}

func TestAddSlave(t *testing.T) {
	o := NewBlockOwnership(12, 3)
	id := o.AddSlave()
	if id != 3 {
		t.Fatalf("new slave id = %d, want 3", id)
	}
	if got := len(o.ActiveCounts()); got != 4 {
		t.Fatalf("slots after join = %d, want 4", got)
	}
	if n := len(o.OwnedActive(3)); n != 0 {
		t.Fatalf("joiner owns %d units, want 0", n)
	}
	if !o.IsBlock() {
		t.Fatal("join broke the block invariant")
	}
}

// TestReassignDeadRestricted is the SOR ownership-map invariant test: after
// an interior, left-edge, or right-edge slave dies, adjacent-only
// reassignment must keep the distribution a contiguous block partition
// (IsBlock), keep every unit owned by a survivor, and only enlarge the
// neighbors adjacent to the dead block.
func TestReassignDeadRestricted(t *testing.T) {
	const units, slaves = 256, 8
	for dead := 0; dead < slaves; dead++ {
		o := NewBlockOwnership(units, slaves)
		before := o.ActiveCounts()
		alive := make([]bool, slaves)
		for s := range alive {
			alive[s] = s != dead
		}
		moved, err := ReassignDead(o, dead, true, nil, alive)
		if err != nil {
			t.Fatalf("dead=%d: %v", dead, err)
		}
		if moved != before[dead] {
			t.Fatalf("dead=%d: moved %d units, want %d", dead, moved, before[dead])
		}
		if !o.IsBlock() {
			t.Fatalf("dead=%d: block invariant broken", dead)
		}
		after := o.ActiveCounts()
		if after[dead] != 0 {
			t.Fatalf("dead=%d: still owns %d units", dead, after[dead])
		}
		if o.ActiveTotal() != units {
			t.Fatalf("dead=%d: lost units: %d", dead, o.ActiveTotal())
		}
		for s := 0; s < slaves; s++ {
			if s == dead {
				continue
			}
			adjacent := s == dead-1 || s == dead+1
			if adjacent && after[s] <= before[s] {
				t.Fatalf("dead=%d: adjacent slave %d did not grow (%d -> %d)",
					dead, s, before[s], after[s])
			}
			if !adjacent && after[s] != before[s] {
				t.Fatalf("dead=%d: non-adjacent slave %d changed (%d -> %d)",
					dead, s, before[s], after[s])
			}
		}
	}
}

// A second failure must skip over the earlier dead slot and reach the
// nearest surviving neighbor.
func TestReassignDeadRestrictedSkipsDeadNeighbor(t *testing.T) {
	o := NewBlockOwnership(80, 5)
	alive := []bool{true, false, true, true, true}
	if _, err := ReassignDead(o, 1, true, nil, alive); err != nil {
		t.Fatal(err)
	}
	alive[2] = false
	if _, err := ReassignDead(o, 2, true, nil, alive); err != nil {
		t.Fatal(err)
	}
	if !o.IsBlock() {
		t.Fatal("block invariant broken after cascading failures")
	}
	counts := o.ActiveCounts()
	if counts[1] != 0 || counts[2] != 0 {
		t.Fatalf("dead slaves still own units: %v", counts)
	}
	// Slave 2's block split between slaves 0 (skipping dead 1) and 3.
	if counts[0] <= 16 || counts[3] <= 16 {
		t.Fatalf("survivors did not adopt across the dead slot: %v", counts)
	}
}

// reassignAllDead does what the fault policy's recovery does: one
// ReassignDead call per dead slot that still owns something, every dead
// slot already masked out.
func reassignAllDead(t *testing.T, o *Ownership, restricted bool, alive []bool) {
	t.Helper()
	for d := range alive {
		if !alive[d] && len(o.Owned(d)) > 0 {
			if _, err := ReassignDead(o, d, restricted, nil, alive); err != nil {
				t.Fatalf("dead=%d: %v", d, err)
			}
		}
	}
}

// Two adjacent slaves dying in one recovery: reassigning each slot on its
// own interleaved the survivors' units (L,R,L,R); the run must be cut once.
func TestReassignDeadRestrictedAdjacentPair(t *testing.T) {
	o := NewBlockOwnership(80, 5)
	alive := []bool{true, false, false, true, true}
	reassignAllDead(t, o, true, alive)
	if !o.IsBlock() {
		t.Fatalf("block invariant broken by an adjacent dead pair: %v", o.ActiveCounts())
	}
	if got, want := o.ActiveCounts(), []int{32, 0, 0, 32, 16}; !reflect.DeepEqual(got, want) {
		t.Fatalf("counts = %v, want %v", got, want)
	}
}

// TestReassignDeadRunsQuick: random alive masks with runs of dead slots,
// over block distributions with a random active window. Every active unit
// must end with a live owner, and restricted reassignment must keep the
// block order.
func TestReassignDeadRunsQuick(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		slaves := 2 + r.Intn(9)
		units := slaves + r.Intn(12*slaves)
		restricted := r.Intn(2) == 0
		o := NewBlockOwnership(units, slaves)
		for u, retired := 0, r.Intn(units/2+1); u < retired; u++ {
			o.Deactivate(u) // a shrinking active window, as in LU
		}
		alive := make([]bool, slaves)
		dead := false
		for s := range alive {
			// Sticky coin: a dead slot makes the next one likelier dead.
			dead = r.Intn(4) == 0 || (dead && r.Intn(2) == 0)
			alive[s] = !dead
		}
		alive[r.Intn(slaves)] = true
		total := o.ActiveTotal()
		reassignAllDead(t, o, restricted, alive)
		if o.ActiveTotal() != total {
			t.Logf("seed %d: active units %d -> %d", seed, total, o.ActiveTotal())
			return false
		}
		for u := 0; u < units; u++ {
			if !alive[o.OwnerOf(u)] {
				t.Logf("seed %d: unit %d owned by dead slot %d (alive %v)", seed, u, o.OwnerOf(u), alive)
				return false
			}
		}
		if restricted && !o.IsBlock() {
			t.Logf("seed %d: block order broken (alive %v, counts %v)", seed, alive, o.ActiveCounts())
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReassignDeadProportional(t *testing.T) {
	o := NewBlockOwnership(100, 4)
	alive := []bool{true, true, false, true}
	weights := []float64{3, 1, 5, 1} // dead slave's weight must be ignored
	moved, err := ReassignDead(o, 2, false, weights, alive)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 25 {
		t.Fatalf("moved = %d, want 25", moved)
	}
	counts := o.ActiveCounts()
	if counts[2] != 0 {
		t.Fatalf("dead slave still owns units: %v", counts)
	}
	if o.ActiveTotal() != 100 {
		t.Fatalf("lost units: %d", o.ActiveTotal())
	}
	// 25 units split 3:1:1 across slaves 0,1,3 => 15,5,5.
	if counts[0] != 40 || counts[1] != 30 || counts[3] != 30 {
		t.Fatalf("proportional shares wrong: %v", counts)
	}
	// All-zero weights fall back to an even split among survivors.
	o2 := NewBlockOwnership(90, 4)
	if _, err := ReassignDead(o2, 2, false, nil, alive); err != nil {
		t.Fatal(err)
	}
	c2 := o2.ActiveCounts()
	if c2[0]+c2[1]+c2[3] != 90 || c2[2] != 0 {
		t.Fatalf("even-split fallback wrong: %v", c2)
	}
}

func TestReassignDeadErrors(t *testing.T) {
	o := NewBlockOwnership(10, 2)
	if _, err := ReassignDead(o, 0, true, nil, []bool{true, true}); err == nil {
		t.Error("alive slave reassigned")
	}
	if _, err := ReassignDead(o, 0, true, nil, []bool{false, false}); err == nil {
		t.Error("reassigned with no survivors")
	}
	if _, err := ReassignDead(o, 5, true, nil, []bool{true, true}); err == nil {
		t.Error("out-of-range slave accepted")
	}
}

// The dead-slot hazard: with cur=[4,0,4] and targets=[5,0,3], the plain
// prefix-based restricted mover would emit a move From the dead slot 1.
// movesRestrictedAlive must route the transfer 2 -> 0 directly.
func TestMovesRestrictedAlive(t *testing.T) {
	o := NewBlockOwnership(8, 3)
	alive := []bool{true, false, true}
	if _, err := ReassignDead(o, 1, true, nil, alive); err != nil {
		t.Fatal(err)
	}
	// Make counts [4,0,4]: ReassignDead on 8/3 blocks gives [4,0,4] already
	// (blocks 3,2,3; dead slave 1's 2 units split 1/1).
	cur := o.ActiveCounts()
	if cur[0] != 4 || cur[1] != 0 || cur[2] != 4 {
		t.Fatalf("setup counts = %v", cur)
	}
	moves := movesRestricted(o, []int{5, 0, 3}, alive)
	for _, m := range moves {
		if !alive[m.From] || !alive[m.To] {
			t.Fatalf("move touches dead slot: %+v", m)
		}
		if err := o.Apply(m); err != nil {
			t.Fatalf("apply %+v: %v", m, err)
		}
	}
	got := o.ActiveCounts()
	if got[0] != 5 || got[1] != 0 || got[2] != 3 {
		t.Fatalf("counts after moves = %v, want [5 0 3]", got)
	}
	if !o.IsBlock() {
		t.Fatal("block invariant broken by alive-aware moves")
	}
}

func TestBalancerSetAlive(t *testing.T) {
	own := NewBlockOwnership(80, 4)
	cfg := DefaultConfig(4, true)
	cfg.DisableFilter = true
	cfg.DisableProfitability = true
	b := NewBalancer(cfg, own, NewMoveCostModel(0, 0))
	alive := []bool{true, true, false, true}
	if _, err := ReassignDead(own, 2, true, nil, alive); err != nil {
		t.Fatal(err)
	}
	b.SetAlive(alive)
	// The dead slot reports a huge stale rate; it must be ignored. Slave 3
	// is slow, so work should shift away from it through alive slots only.
	statuses := []Status{{Rate: 10}, {Rate: 10}, {Rate: 1e9}, {Rate: 2}}
	d := b.Step(statuses, 80)
	if d.Targets[2] != 0 {
		t.Fatalf("dead slot got target %d: %v", d.Targets[2], d.Targets)
	}
	for _, m := range d.Moves {
		if m.From == 2 || m.To == 2 {
			t.Fatalf("move touches dead slot: %+v", m)
		}
	}
	if !own.IsBlock() {
		t.Fatal("block invariant broken")
	}
	if own.ActiveCounts()[2] != 0 {
		t.Fatal("dead slot owns units after step")
	}

	// Elastic join: grow to 5 slots; the joiner starts alive and empty and
	// receives a proportional target on the next step.
	b.Grow(5)
	statuses = append(statuses, Status{Rate: 10})
	d = b.Step(statuses, 80)
	if len(d.Targets) != 5 || d.Targets[4] == 0 {
		t.Fatalf("joiner got no target: %v", d.Targets)
	}
}

func TestApportionAlive(t *testing.T) {
	got := apportionAlive(10, []float64{1, 9, 1}, []bool{true, false, true})
	if got[1] != 0 || got[0]+got[2] != 10 || got[0] != 5 {
		t.Fatalf("apportionAlive = %v", got)
	}
	// All-zero rates: even split among alive only.
	got = apportionAlive(9, []float64{0, 0, 0}, []bool{true, false, true})
	if got[1] != 0 || got[0]+got[2] != 9 {
		t.Fatalf("even-split fallback = %v", got)
	}
}
