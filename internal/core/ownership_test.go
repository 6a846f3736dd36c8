package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewBlockOwnership(t *testing.T) {
	o := NewBlockOwnership(10, 3)
	counts := o.ActiveCounts()
	want := []int{4, 3, 3}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if !o.IsBlock() {
		t.Fatal("initial distribution is not block")
	}
	if o.OwnerOf(0) != 0 || o.OwnerOf(9) != 2 {
		t.Fatalf("unexpected owners: %d, %d", o.OwnerOf(0), o.OwnerOf(9))
	}
}

func TestDeactivate(t *testing.T) {
	o := NewBlockOwnership(6, 2)
	o.Deactivate(0)
	o.Deactivate(3)
	if o.ActiveTotal() != 4 {
		t.Fatalf("ActiveTotal = %d, want 4", o.ActiveTotal())
	}
	counts := o.ActiveCounts()
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("counts = %v, want [2 2]", counts)
	}
	owned := o.OwnedActive(1)
	if len(owned) != 2 || owned[0] != 4 || owned[1] != 5 {
		t.Fatalf("OwnedActive(1) = %v, want [4 5]", owned)
	}
	if len(o.Owned(1)) != 3 {
		t.Fatalf("Owned(1) = %v, want 3 units incl. inactive", o.Owned(1))
	}
}

// TestRetireOutside: every unit outside [lo, hi) goes inactive, units
// inside keep their state (a retired one stays retired), and owners never
// change.
func TestRetireOutside(t *testing.T) {
	o := NewBlockOwnership(8, 2)
	o.Deactivate(4)
	o.RetireOutside(2, 6)
	var active []int
	for u := 0; u < o.Units(); u++ {
		if o.IsActive(u) {
			active = append(active, u)
		}
		if o.OwnerOf(u) != u/4 {
			t.Fatalf("unit %d owner %d, want %d", u, o.OwnerOf(u), u/4)
		}
	}
	if len(active) != 3 || active[0] != 2 || active[1] != 3 || active[2] != 5 {
		t.Fatalf("active = %v, want [2 3 5]", active)
	}
	o.RetireOutside(0, 8)
	if o.ActiveTotal() != 3 {
		t.Fatalf("a wider range reactivated units: %d active, want 3", o.ActiveTotal())
	}
	o.RetireOutside(3, 3)
	if o.ActiveTotal() != 0 {
		t.Fatalf("an empty range left %d active, want 0", o.ActiveTotal())
	}
}

func TestApplyValidation(t *testing.T) {
	o := NewBlockOwnership(4, 2)
	if err := o.Apply(Move{From: 0, To: 1, Units: []int{3}}); err == nil {
		t.Error("move of unit not owned by From accepted")
	}
	o.Deactivate(1)
	if err := o.Apply(Move{From: 0, To: 1, Units: []int{1}}); err == nil {
		t.Error("move of inactive unit accepted")
	}
	if err := o.Apply(Move{From: 0, To: 1, Units: []int{99}}); err == nil {
		t.Error("move of out-of-range unit accepted")
	}
	if err := o.Apply(Move{From: 0, To: 1, Units: []int{0}}); err != nil {
		t.Errorf("valid move rejected: %v", err)
	}
	if o.OwnerOf(0) != 1 {
		t.Error("Apply did not transfer ownership")
	}
}

func TestApportion(t *testing.T) {
	got := apportion(10, []float64{1, 1})
	if got[0]+got[1] != 10 || got[0] != 5 {
		t.Fatalf("even split = %v", got)
	}
	got = apportion(10, []float64{3, 1})
	if got[0] != 8 || got[1] != 2 {
		t.Fatalf("3:1 split of 10 = %v, want [8 2]", got)
	}
	got = apportion(7, []float64{1, 1, 1})
	if got[0]+got[1]+got[2] != 7 {
		t.Fatalf("split does not sum: %v", got)
	}
	// Zero-rate slave gets nothing.
	got = apportion(6, []float64{1, 0, 1})
	if got[1] != 0 {
		t.Fatalf("zero-rate slave got work: %v", got)
	}
	// All-zero rates fall back to an even split.
	got = apportion(6, []float64{0, 0, 0})
	if got[0] != 2 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("all-zero fallback = %v", got)
	}
}

func TestApportionQuickSums(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		total := r.Intn(200)
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = r.Float64() * 10
		}
		out := apportion(total, rates)
		sum := 0
		for _, v := range out {
			if v < 0 {
				return false
			}
			sum += v
		}
		return sum == total
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// simulateMoves executes moves in order against per-slave unit sets,
// failing if a sender does not hold a unit at send time (the executability
// property the run-time system relies on).
func simulateMoves(t *testing.T, o *Ownership, moves []Move) map[int]map[int]bool {
	t.Helper()
	held := map[int]map[int]bool{}
	for s := 0; s < o.Slaves(); s++ {
		held[s] = map[int]bool{}
		for _, u := range o.OwnedActive(s) {
			held[s][u] = true
		}
	}
	for _, m := range moves {
		for _, u := range m.Units {
			if !held[m.From][u] {
				t.Fatalf("move %v: slave %d does not hold unit %d at send time", m, m.From, u)
			}
			delete(held[m.From], u)
			held[m.To][u] = true
		}
	}
	return held
}

func TestMovesRestrictedChainsThroughIntermediate(t *testing.T) {
	o := NewBlockOwnership(10, 3)
	// Everything starts on slave 0.
	for u := 0; u < 10; u++ {
		if o.OwnerOf(u) != 0 {
			_ = o.Apply(Move{From: o.OwnerOf(u), To: 0, Units: []int{u}})
		}
	}
	targets := []int{4, 3, 3}
	moves := movesRestricted(o, targets, nil)
	simulateMoves(t, o, moves)
	for _, m := range moves {
		if err := o.Apply(m); err != nil {
			t.Fatalf("apply %v: %v", m, err)
		}
		if d := m.To - m.From; d != 1 && d != -1 {
			t.Fatalf("restricted move between non-adjacent slaves: %v", m)
		}
	}
	counts := o.ActiveCounts()
	for i := range targets {
		if counts[i] != targets[i] {
			t.Fatalf("counts = %v, want %v", counts, targets)
		}
	}
	if !o.IsBlock() {
		t.Fatal("restricted movement broke the block distribution")
	}
}

func TestMovesRestrictedQuick(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		slaves := 2 + r.Intn(6)
		units := slaves + r.Intn(40)
		o := NewBlockOwnership(units, slaves)
		// Random deactivations (keep at least one active unit).
		for u := 0; u < units; u++ {
			if r.Intn(4) == 0 && o.ActiveTotal() > 1 {
				o.Deactivate(u)
			}
		}
		rates := make([]float64, slaves)
		for i := range rates {
			rates[i] = 0.1 + r.Float64()*5
		}
		targets := apportion(o.ActiveTotal(), rates)
		moves := movesRestricted(o, targets, nil)
		// Executability.
		held := map[int]map[int]bool{}
		for s := 0; s < slaves; s++ {
			held[s] = map[int]bool{}
			for _, u := range o.OwnedActive(s) {
				held[s][u] = true
			}
		}
		for _, m := range moves {
			if m.To-m.From != 1 && m.To-m.From != -1 {
				return false
			}
			for _, u := range m.Units {
				if !held[m.From][u] {
					return false
				}
				delete(held[m.From], u)
				held[m.To][u] = true
			}
		}
		for _, m := range moves {
			if err := o.Apply(m); err != nil {
				return false
			}
		}
		counts := o.ActiveCounts()
		for i := range targets {
			if counts[i] != targets[i] {
				return false
			}
		}
		return o.IsBlock()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMovesUnrestrictedQuick(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		slaves := 2 + r.Intn(6)
		units := slaves + r.Intn(40)
		o := NewBlockOwnership(units, slaves)
		// Scatter ownership arbitrarily (unrestricted mode has no block
		// invariant).
		for u := 0; u < units; u++ {
			to := r.Intn(slaves)
			if o.OwnerOf(u) != to {
				if err := o.Apply(Move{From: o.OwnerOf(u), To: to, Units: []int{u}}); err != nil {
					return false
				}
			}
		}
		rates := make([]float64, slaves)
		for i := range rates {
			rates[i] = 0.1 + r.Float64()*5
		}
		targets := apportion(o.ActiveTotal(), rates)
		moves := movesUnrestricted(o, targets)
		// Direct moves: each sender owns its units up front.
		for _, m := range moves {
			for _, u := range m.Units {
				if o.OwnerOf(u) != m.From {
					return false
				}
			}
		}
		for _, m := range moves {
			if err := o.Apply(m); err != nil {
				return false
			}
		}
		counts := o.ActiveCounts()
		for i := range targets {
			if counts[i] != targets[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMovesNoopWhenBalanced(t *testing.T) {
	o := NewBlockOwnership(12, 4)
	targets := []int{3, 3, 3, 3}
	if moves := movesRestricted(o, targets, nil); len(moves) != 0 {
		t.Errorf("restricted moves on balanced system: %v", moves)
	}
	if moves := movesUnrestricted(o, targets); len(moves) != 0 {
		t.Errorf("unrestricted moves on balanced system: %v", moves)
	}
}
