package core

import (
	"math"
	"reflect"
	"testing"
)

func TestActiveWeightTotals(t *testing.T) {
	o := NewBlockOwnership(8, 2) // units 0-3 on slave 0, 4-7 on slave 1
	o.Deactivate(0)
	o.Deactivate(7)

	// Nil weights count active units.
	if got := ActiveWeightTotals(o, nil); !reflect.DeepEqual(got, []float64{3, 3}) {
		t.Errorf("nil weights: %v, want [3 3]", got)
	}
	w := []float64{10, 1, 2, 3, 4, 5, 6, 20}
	if got := ActiveWeightTotals(o, w); !reflect.DeepEqual(got, []float64{6, 15}) {
		t.Errorf("weighted: %v, want [6 15]", got)
	}
}

func TestCompletionTimeWeighted(t *testing.T) {
	if got := CompletionTimeWeighted([]float64{10, 6}, []float64{2, 3}); got != 5 {
		t.Errorf("got %g, want 5 (slot 0: 10/2)", got)
	}
	// A slot with no weight is skipped even at zero rate.
	if got := CompletionTimeWeighted([]float64{0, 6}, []float64{0, 3}); got != 2 {
		t.Errorf("empty slot: got %g, want 2", got)
	}
	// A slot holding weight with no measured rate never finishes.
	if got := CompletionTimeWeighted([]float64{1, 6}, []float64{0, 3}); !math.IsInf(got, 1) {
		t.Errorf("stalled slot: got %g, want +Inf", got)
	}
}

func TestWeightedSplitRangeUniform(t *testing.T) {
	// Uniform weights and equal shares reduce to an even split.
	unitW := []float64{1, 1, 1, 1, 1, 1}
	counts, tgtW := WeightedSplitRange(unitW, []float64{3, 3})
	if !reflect.DeepEqual(counts, []int{3, 3}) {
		t.Errorf("counts %v, want [3 3]", counts)
	}
	if !reflect.DeepEqual(tgtW, []float64{3, 3}) {
		t.Errorf("tgtW %v, want [3 3]", tgtW)
	}
}

func TestWeightedSplitRangeSkewed(t *testing.T) {
	// One hot unit at the front: equal weight shares mean the first slot
	// takes only the hot unit while the second takes all five cheap ones.
	unitW := []float64{5, 1, 1, 1, 1, 1}
	counts, tgtW := WeightedSplitRange(unitW, []float64{5, 5})
	if !reflect.DeepEqual(counts, []int{1, 5}) {
		t.Errorf("counts %v, want [1 5]", counts)
	}
	if !reflect.DeepEqual(tgtW, []float64{5, 5}) {
		t.Errorf("tgtW %v, want [5 5]", tgtW)
	}
}

func TestWeightedSplitRangeContiguous(t *testing.T) {
	// Counts must always describe a prefix partition covering every unit,
	// whatever the shares.
	unitW := []float64{2, 3, 1, 4, 2, 2, 1, 1}
	counts, _ := WeightedSplitRange(unitW, []float64{4, 8, 4})
	total := 0
	for _, c := range counts {
		if c < 0 {
			t.Fatalf("negative count in %v", counts)
		}
		total += c
	}
	if total != len(unitW) {
		t.Errorf("counts %v cover %d units, want %d", counts, total, len(unitW))
	}
}

func TestWeightedPeelCounts(t *testing.T) {
	// Slave 0 holds the heavy tail; shares ask for an even weight split.
	// Its highest-numbered units peel off to slave 1 — the same units
	// unrestricted movement would take.
	w := []float64{1, 1, 4, 4, 1, 1}
	owned := [][]int{{0, 1, 2, 3}, {4, 5}}
	counts, tgtW := WeightedPeelCounts(owned, w, []float64{6, 6})
	if !reflect.DeepEqual(counts, []int{3, 3}) {
		t.Errorf("counts %v, want [3 3]", counts)
	}
	if !reflect.DeepEqual(tgtW, []float64{6, 6}) {
		t.Errorf("tgtW %v, want [6 6]", tgtW)
	}
}

func TestWeightedPeelCountsNoSurplus(t *testing.T) {
	// Already balanced by weight: nothing peels, counts stay put.
	w := []float64{3, 1, 1, 1}
	owned := [][]int{{0}, {1, 2, 3}}
	counts, tgtW := WeightedPeelCounts(owned, w, []float64{3, 3})
	if !reflect.DeepEqual(counts, []int{1, 3}) {
		t.Errorf("counts %v, want [1 3]", counts)
	}
	if !reflect.DeepEqual(tgtW, []float64{3, 3}) {
		t.Errorf("tgtW %v, want [3 3]", tgtW)
	}
}

func TestWeightedPeelCountsDeadSlot(t *testing.T) {
	// A slot with zero share gives up everything; the pool lands on the
	// live slots without losing units.
	w := []float64{1, 1, 1, 1}
	owned := [][]int{{0, 1}, {2, 3}}
	counts, tgtW := WeightedPeelCounts(owned, w, []float64{0, 4})
	if counts[0] != 0 {
		t.Errorf("dead slot kept %d units", counts[0])
	}
	if counts[1] != 4 || tgtW[1] != 4 {
		t.Errorf("live slot got counts=%d tgtW=%g, want 4/4", counts[1], tgtW[1])
	}
}

// TestUnitWeightsAreNotUniformArithmetic records why the run-time keeps its
// UniformActive gate instead of routing weights ≡ 1.0 through the weighted
// step: the two roundings place the slack on different slots, so the same
// loads come with different moves.
func TestUnitWeightsAreNotUniformArithmetic(t *testing.T) {
	step := func(weights []float64) Decision {
		cfg := DefaultConfig(3, true)
		cfg.MinImprovement = 0
		cfg.DisableProfitability = true
		own := NewBlockOwnership(10, 3)
		for u := 3; u < 8; u++ {
			own.owner[u] = 0 // slot 0 starts with eight of the ten units
		}
		b := NewBalancer(cfg, own, NewMoveCostModel(0, 0))
		return b.StepGrouped(allStatuses(5, 5, 5), 10, weights, Grouping{})
	}
	ones := make([]float64, 10)
	for i := range ones {
		ones[i] = 1
	}
	uniform, weighted := step(nil), step(ones)
	if want := []int{4, 3, 3}; !reflect.DeepEqual(uniform.Targets, want) {
		t.Errorf("largest-remainder targets = %v, want %v", uniform.Targets, want)
	}
	if want := []int{3, 4, 3}; !reflect.DeepEqual(weighted.Targets, want) {
		t.Errorf("midpoint-split targets = %v, want %v", weighted.Targets, want)
	}
	if reflect.DeepEqual(uniform.Moves, weighted.Moves) {
		t.Error("unit weights reproduced the uniform moves; the UniformActive gate would be droppable")
	}
}
