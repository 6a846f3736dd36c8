package dlb

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestDenseLearnedBitIdentical is the tentpole's safety guarantee: on
// dense (uniform-cost) programs the learned cost model must be a no-op —
// the same schedule, the same moves, the same results, bit for bit. The
// slaves measure and report block costs, the master folds them into the
// model, and because every relative cost lands on exactly 1.0 the decision
// layer takes the legacy code path unchanged.
func TestDenseLearnedBitIdentical(t *testing.T) {
	progs := []struct {
		name   string
		params map[string]int
	}{
		{"jacobi", map[string]int{"n": 64, "maxiter": 8}},
		{"sor", map[string]int{"n": 48, "maxiter": 6}},
	}
	for _, p := range progs {
		plan := planFor(t, p.name)
		for _, sync := range []bool{false, true} {
			for _, slaves := range []int{2, 4, 8} {
				base := Config{Plan: plan, Params: p.params, DLB: true, Synchronous: sync}
				cc := cluster.Config{Slaves: slaves}

				uni := base
				uni.CostModel = CostUniform
				ru, err := Run(uni, cc)
				if err != nil {
					t.Fatalf("%s sync=%v slaves=%d uniform: %v", p.name, sync, slaves, err)
				}
				lrn := base
				lrn.CostModel = CostLearned
				rl, err := Run(lrn, cc)
				if err != nil {
					t.Fatalf("%s sync=%v slaves=%d learned: %v", p.name, sync, slaves, err)
				}

				if ru.Elapsed != rl.Elapsed {
					t.Errorf("%s sync=%v slaves=%d: elapsed %v (uniform) != %v (learned)",
						p.name, sync, slaves, ru.Elapsed, rl.Elapsed)
				}
				if ru.Phases != rl.Phases || ru.Moves != rl.Moves || ru.UnitsMoved != rl.UnitsMoved {
					t.Errorf("%s sync=%v slaves=%d: schedule diverged: phases %d/%d moves %d/%d units %d/%d",
						p.name, sync, slaves, ru.Phases, rl.Phases, ru.Moves, rl.Moves, ru.UnitsMoved, rl.UnitsMoved)
				}
				if !reflect.DeepEqual(ru.Owner, rl.Owner) {
					t.Errorf("%s sync=%v slaves=%d: final ownership diverged", p.name, sync, slaves)
				}
				for name, want := range ru.Final {
					got := rl.Final[name]
					if got == nil {
						t.Fatalf("%s: array %q missing from learned result", p.name, name)
					}
					if d := want.MaxAbsDiff(got); d != 0 {
						t.Errorf("%s sync=%v slaves=%d: array %q differs by %g", p.name, sync, slaves, name, d)
					}
				}
			}
		}
	}
}

// TestIrregularLearnedBeatsUniform is the learned model's payoff: on skewed
// data-dependent workloads it must deliver both a shorter makespan and a
// lower weighted load imbalance than the uniform assumption, and the
// results must still match the sequential reference exactly. The grouped
// rows hold the hierarchy to the same bar: Groups>1 with live weights is
// the balancer's per-group weighted apportioning plus weighted exchange
// flows, and a grouped step that dropped the weights would reproduce the
// uniform row's imbalance and fail here.
func TestIrregularLearnedBeatsUniform(t *testing.T) {
	cases := []struct {
		name   string
		params map[string]int
		slaves int
	}{
		{"spmv", map[string]int{"n": 1024, "maxiter": 4}, 8},
		{"pbin", map[string]int{"n": 256, "maxiter": 4}, 8},
	}
	for _, c := range cases {
		plan := planFor(t, c.name)
		for _, groups := range []int{0, 2} {
			elapsed := map[string]time.Duration{}
			imbal := map[string]float64{}
			for _, mode := range []string{CostUniform, CostLearned} {
				res := runAndVerify(t, plan, c.params,
					Config{DLB: true, CostModel: mode, Groups: groups, GroupExchangeEvery: 2},
					cluster.Config{Slaves: c.slaves})
				elapsed[mode] = res.Elapsed
				if len(res.Loads) == 0 {
					t.Fatalf("%s g%d %s: no load samples recorded", c.name, groups, mode)
				}
				sum := 0.0
				for _, l := range res.Loads {
					sum += l.Max / l.Mean
				}
				imbal[mode] = sum / float64(len(res.Loads))
			}
			if elapsed[CostLearned] >= elapsed[CostUniform] {
				t.Errorf("%s g%d: learned makespan %v not better than uniform %v",
					c.name, groups, elapsed[CostLearned], elapsed[CostUniform])
			}
			if imbal[CostLearned] >= imbal[CostUniform] {
				t.Errorf("%s g%d: learned imbalance %.3f not better than uniform %.3f",
					c.name, groups, imbal[CostLearned], imbal[CostUniform])
			}
		}
	}
}

// TestCostModelValidation rejects unknown cost-model names at Run.
func TestCostModelValidation(t *testing.T) {
	plan := planFor(t, "jacobi")
	_, err := Run(Config{Plan: plan, Params: map[string]int{"n": 32, "maxiter": 2}, CostModel: "bogus"},
		cluster.Config{Slaves: 2})
	if err == nil {
		t.Fatal("Run accepted CostModel \"bogus\"")
	}
}

// TestObservePooledNormalization checks the cross-slave property the model
// depends on: blocks from different slaves in one pooled round are
// normalized by the pool's mean, so a slave whose own holdings are
// internally uniform still learns weights comparable to its peers'.
func TestObservePooledNormalization(t *testing.T) {
	m := NewUnitCostModel(8)
	// Two slaves, each internally uniform: units 0-3 cost 1µs, units 4-7
	// cost 3µs. Pool mean is 2µs.
	m.Observe([]CostBlock{
		{Lo: 0, Hi: 4, PerUnit: 1e-6},
		{Lo: 4, Hi: 8, PerUnit: 3e-6},
	})
	for u := 0; u < 4; u++ {
		if got := m.Weight(u); got != 0.5 {
			t.Errorf("unit %d: weight %g, want 0.5", u, got)
		}
	}
	for u := 4; u < 8; u++ {
		if got := m.Weight(u); got != 1.5 {
			t.Errorf("unit %d: weight %g, want 1.5", u, got)
		}
	}
	if m.UniformActive([]int{0, 1, 2, 3, 4, 5, 6, 7}) {
		t.Error("3x cost spread reported as uniform")
	}
}

// TestObserveUniformStaysExact checks the dense fast path: when every
// block in the pool reports the same per-unit cost, weights stay at
// exactly 1.0 (no float division) and the model remains uniform.
func TestObserveUniformStaysExact(t *testing.T) {
	m := NewUnitCostModel(6)
	for i := 0; i < 3; i++ {
		m.Observe([]CostBlock{
			{Lo: 0, Hi: 3, PerUnit: 2.5e-6},
			{Lo: 3, Hi: 6, PerUnit: 2.5e-6},
		})
	}
	for u := 0; u < 6; u++ {
		if got := m.Weight(u); got != 1.0 {
			t.Errorf("unit %d: weight %g, want exactly 1.0", u, got)
		}
	}
	if !m.UniformActive([]int{0, 1, 2, 3, 4, 5}) {
		t.Error("uniform reports left the uniform prior")
	}
}

// TestObserveFirstSnapThenEWMA: the first measurement replaces the prior
// outright; later measurements blend by EWMA.
func TestObserveFirstSnapThenEWMA(t *testing.T) {
	m := NewUnitCostModel(2)
	m.Observe([]CostBlock{
		{Lo: 0, Hi: 1, PerUnit: 3e-6},
		{Lo: 1, Hi: 2, PerUnit: 1e-6},
	})
	if got := m.Weight(0); got != 1.5 {
		t.Fatalf("first observation: weight %g, want snap to 1.5", got)
	}
	// Costs flip: the EWMA moves halfway from 1.5 toward 0.5.
	m.Observe([]CostBlock{
		{Lo: 0, Hi: 1, PerUnit: 1e-6},
		{Lo: 1, Hi: 2, PerUnit: 3e-6},
	})
	if got := m.Weight(0); got != 1.0 {
		t.Fatalf("second observation: weight %g, want EWMA 1.0", got)
	}
}

// TestWeightDone weights a block report by the model.
func TestWeightDone(t *testing.T) {
	m := NewUnitCostModel(4)
	m.Observe([]CostBlock{
		{Lo: 0, Hi: 2, PerUnit: 1e-6},
		{Lo: 2, Hi: 4, PerUnit: 3e-6},
	})
	if got := m.WeightDone([]CostBlock{{Lo: 0, Hi: 4}}); got != 4.0 {
		t.Errorf("WeightDone over all units: %g, want 4.0", got)
	}
	if got := m.WeightDone([]CostBlock{{Lo: 2, Hi: 4}}); got != 3.0 {
		t.Errorf("WeightDone over heavy half: %g, want 3.0", got)
	}
	if got := m.WeightDone(nil); got != 0 {
		t.Errorf("WeightDone(nil): %g, want 0", got)
	}
}
