package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// TestBalancerInvariantsQuick drives a balancer with random rate sequences
// and checks the invariants every step:
//   - active units are conserved (moves never lose or duplicate work),
//   - restricted mode keeps the block property and adjacent-only moves,
//   - the decision's targets always sum to the active total,
//   - the period never falls below the quantum floor.
func TestBalancerInvariantsQuick(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		slaves := 2 + r.Intn(6)
		units := slaves + r.Intn(60)
		restricted := r.Intn(2) == 0
		cfg := DefaultConfig(slaves, restricted)
		own := NewBlockOwnership(units, slaves)
		bal := NewBalancer(cfg, own, NewMoveCostModel(time.Millisecond, 10*time.Microsecond))

		total := own.ActiveTotal()
		for step := 0; step < 12; step++ {
			// Occasionally retire some units (LU-style shrinking).
			if r.Intn(3) == 0 && own.ActiveTotal() > slaves {
				for u := 0; u < units; u++ {
					if own.IsActive(u) && r.Intn(8) == 0 {
						own.Deactivate(u)
					}
				}
				total = own.ActiveTotal()
			}
			statuses := make([]Status, slaves)
			for i := range statuses {
				statuses[i] = Status{Rate: 1 + r.Float64()*99}
			}
			d := bal.Step(statuses, float64(total))

			if own.ActiveTotal() != total {
				return false
			}
			if restricted && !own.IsBlock() {
				return false
			}
			for _, m := range d.Moves {
				if restricted && m.To-m.From != 1 && m.To-m.From != -1 {
					return false
				}
				if len(m.Units) == 0 {
					return false
				}
			}
			if d.Targets != nil {
				sum := 0
				for _, v := range d.Targets {
					sum += v
				}
				if sum != total {
					return false
				}
			}
			if d.Period < 500*time.Millisecond {
				return false
			}
			if d.SkipHooks < 0 || d.SkipHooks > cfg.MaxSkip {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// groupedScenario is one random balancing problem for TestStepGroupedQuick:
// a distribution with some slots dead (owning nothing, as recovery leaves
// them), optional per-unit weights, and a status stream.
type groupedScenario struct {
	r          *rand.Rand
	slaves     int
	restricted bool
	own        *Ownership
	alive      []bool // nil: no failures
	weights    []float64
}

func newGroupedScenario(seed int64) *groupedScenario {
	r := rand.New(rand.NewSource(seed))
	sc := &groupedScenario{r: r, slaves: 3 + r.Intn(6), restricted: r.Intn(2) == 0}
	units := 2*sc.slaves + r.Intn(60)
	sc.own = NewBlockOwnership(units, sc.slaves)
	if r.Intn(3) == 0 {
		sc.alive = make([]bool, sc.slaves)
		for i := range sc.alive {
			sc.alive[i] = true
		}
		for k := 1 + r.Intn(sc.slaves-1); k > 0; k-- {
			sc.alive[r.Intn(sc.slaves)] = false
		}
		sc.alive[r.Intn(sc.slaves)] = true // never everyone
		// Blocks over the survivors only, in slot order.
		var ids []int
		for s, a := range sc.alive {
			if a {
				ids = append(ids, s)
			}
		}
		owner, active := NewBlockOwnership(units, len(ids)).Snapshot()
		for u, s := range owner {
			owner[u] = ids[s]
		}
		sc.own = OwnershipFromMap(owner, active, sc.slaves)
	}
	if r.Intn(2) == 0 {
		sc.weights = make([]float64, units)
		for u := range sc.weights {
			sc.weights[u] = 0.2 + 5*r.Float64()
		}
	}
	return sc
}

func (sc *groupedScenario) balancer() *Balancer {
	b := NewBalancer(DefaultConfig(sc.slaves, sc.restricted), sc.own.Clone(),
		NewMoveCostModel(time.Millisecond, 10*time.Microsecond))
	b.SetAlive(sc.alive)
	return b
}

func (sc *groupedScenario) statuses() []Status {
	out := make([]Status, sc.slaves)
	for i := range out {
		out[i] = Status{Rate: 1 + sc.r.Float64()*99}
	}
	return out
}

// randomFlows is a stand-in diffuser: a random under-half shift across every
// boundary both of whose groups measure a rate (a dead group neither gives
// nor takes), whole units without weights, never overdrawing a group.
func (sc *groupedScenario) randomFlows(loads []GroupLoad) []float64 {
	prov := make([]float64, len(loads))
	for g, l := range loads {
		prov[g] = l.Weight
	}
	flows := make([]float64, len(loads)-1)
	for i := range flows {
		if loads[i].Rate <= 0 || loads[i+1].Rate <= 0 || sc.r.Intn(3) == 0 {
			continue
		}
		f := 0.5 * sc.r.Float64() * prov[i]
		if sc.r.Intn(2) == 0 {
			f = -0.5 * sc.r.Float64() * prov[i+1]
		}
		if sc.weights == nil {
			f = math.Trunc(f)
		}
		flows[i] = f
		prov[i] -= f
		prov[i+1] += f
	}
	return flows
}

// TestStepGroupedQuick checks the composition both ways. With a single
// group — the zero Grouping, or one explicit group with an exchange that is
// never consulted — StepGrouped is Step/StepWeighted: identical Decisions
// and identical ownership, step after step, across restricted and
// unrestricted movement, alive masks and optional weights. With several
// groups the targets still sum to the active total, dead slots get nothing,
// and applying the moves keeps ownership a partition over the alive slots —
// contiguous in slot order (hence per group) under restricted movement.
func TestStepGroupedQuick(t *testing.T) {
	check := func(seed int64) bool {
		sc := newGroupedScenario(seed)
		flat, single, multi := sc.balancer(), sc.balancer(), sc.balancer()
		one := Grouping{Starts: []int{0}, Exchange: func([]GroupLoad) []float64 {
			t.Error("exchange consulted with a single group")
			return nil
		}}
		var starts []int
		for s := 0; s < sc.slaves; s++ {
			if s == 0 || sc.r.Intn(3) == 0 {
				starts = append(starts, s)
			}
		}
		total := sc.own.ActiveTotal()
		for step := 0; step < 10; step++ {
			st := sc.statuses()
			uph := float64(total)

			var want Decision
			if sc.weights == nil {
				want = flat.Step(st, uph)
			} else {
				want = flat.StepWeighted(st, uph, sc.weights)
			}
			got := single.StepGrouped(st, uph, sc.weights, one)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(single.own, flat.own) {
				t.Logf("seed %d step %d: single group diverged:\n got %+v\nwant %+v", seed, step, got, want)
				return false
			}

			grp := Grouping{Starts: starts}
			if step%2 == 1 {
				grp.Exchange = sc.randomFlows
			}
			d := multi.StepGrouped(st, uph, sc.weights, grp)
			if multi.own.ActiveTotal() != total {
				return false
			}
			sum := 0
			for s, v := range d.Targets {
				sum += v
				if sc.alive != nil && !sc.alive[s] && v != 0 {
					t.Logf("seed %d step %d: dead slot %d has target %d", seed, step, s, v)
					return false
				}
			}
			if sum != total {
				t.Logf("seed %d step %d: targets %v sum to %d, want %d", seed, step, d.Targets, sum, total)
				return false
			}
			for s, n := range multi.own.ActiveCounts() {
				if sc.alive != nil && !sc.alive[s] && n != 0 {
					t.Logf("seed %d step %d: dead slot %d owns %d units", seed, step, s, n)
					return false
				}
			}
			if sc.restricted && !multi.own.IsBlock() {
				t.Logf("seed %d step %d: grouped moves broke the block order", seed, step)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFilterBoundedQuick: the filtered rate always stays within the range
// of values seen so far (a convex-combination property of the trend
// filter).
func TestFilterBoundedQuick(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f := NewRateFilter(0.25, 1.0)
		lo, hi := 1e18, -1e18
		for i := 0; i < 50; i++ {
			v := r.Float64() * 1000
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			got := f.Update(v)
			if got < lo-1e-9 || got > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestApportionMonotoneQuick: raising one slave's rate never lowers its
// allocation (house-monotonicity in the rate argument for the largest-
// remainder method can fail in theory for population paradox cases, but
// must hold when only one rate increases and the others are fixed — if it
// doesn't, the balancer could oscillate. Verify empirically over random
// instances; tolerate equality).
func TestApportionMonotoneQuick(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		total := 10 + r.Intn(100)
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = 0.5 + r.Float64()*10
		}
		before := apportion(total, rates)
		k := r.Intn(n)
		rates[k] *= 1.5
		after := apportion(total, rates)
		// The boosted slave must not lose more than 1 unit (largest
		// remainder can wobble by one).
		return after[k] >= before[k]-1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
