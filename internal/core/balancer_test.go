package core

import (
	"testing"
	"time"
)

func TestRateFilterConvergesOnConstant(t *testing.T) {
	f := NewRateFilter(0.25, 1.0)
	var v float64
	for i := 0; i < 20; i++ {
		v = f.Update(100)
	}
	if v != 100 {
		t.Fatalf("filter did not converge to constant input: %v", v)
	}
}

func TestRateFilterDampsSpike(t *testing.T) {
	f := NewRateFilter(0.25, 1.0)
	for i := 0; i < 10; i++ {
		f.Update(100)
	}
	v := f.Update(10) // one-sample dip
	if v < 70 {
		t.Fatalf("single spike moved filter too far: %v", v)
	}
	v = f.Update(100)
	if v < 80 {
		t.Fatalf("filter did not start recovering from spike: %v", v)
	}
	v = f.Update(100)
	if v < 90 {
		t.Fatalf("filter did not recover from spike after two samples: %v", v)
	}
}

func TestRateFilterTracksTrend(t *testing.T) {
	f := NewRateFilter(0.25, 1.0)
	f.Update(100)
	// Sustained drop to 10: with trend doubling, should converge within a
	// few samples (weights 0.25, 0.5, 1.0).
	var v float64
	for i := 0; i < 4; i++ {
		v = f.Update(10)
	}
	if v > 12 {
		t.Fatalf("filter too slow on sustained trend: %v", v)
	}
}

func TestRateFilterPanicsOnBadWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad weights accepted")
		}
	}()
	NewRateFilter(0, 1)
}

func TestTargetPeriodBounds(t *testing.T) {
	q := 100 * time.Millisecond
	// Quantum bound dominates when costs are small.
	p := TargetPeriod(PeriodInputs{Quantum: q})
	if p != 500*time.Millisecond {
		t.Fatalf("period = %v, want 500ms (5 quanta)", p)
	}
	// Movement cost bound: 0.1 x 20s = 2s.
	p = TargetPeriod(PeriodInputs{Quantum: q, MoveCost: 20 * time.Second})
	if p != 2*time.Second {
		t.Fatalf("period = %v, want 2s (0.1 x move cost)", p)
	}
	// Interaction cost bound: 20 x 100ms = 2s.
	p = TargetPeriod(PeriodInputs{Quantum: q, InteractionCost: 100 * time.Millisecond})
	if p != 2*time.Second {
		t.Fatalf("period = %v, want 2s (20 x interaction)", p)
	}
	// 500ms floor with a tiny quantum.
	p = TargetPeriod(PeriodInputs{Quantum: 10 * time.Millisecond})
	if p != 500*time.Millisecond {
		t.Fatalf("period = %v, want 500ms floor", p)
	}
}

func TestHookSkip(t *testing.T) {
	if s := HookSkip(time.Second, 100*time.Millisecond, 50); s != 9 {
		t.Fatalf("skip = %d, want 9", s)
	}
	if s := HookSkip(time.Second, 2*time.Second, 50); s != 0 {
		t.Fatalf("skip = %d, want 0 (hooks rarer than period)", s)
	}
	if s := HookSkip(time.Minute, time.Millisecond, 50); s != 50 {
		t.Fatalf("skip = %d, want capped at 50", s)
	}
	if s := HookSkip(time.Second, 0, 50); s != 0 {
		t.Fatalf("skip = %d, want 0 on zero interval", s)
	}
}

func TestGrainSize(t *testing.T) {
	q := 100 * time.Millisecond
	// 1.5 quanta = 150ms at 1ms/iter -> 150 iterations.
	if g := GrainSize(time.Millisecond, q, 1.5); g != 150 {
		t.Fatalf("grain = %d, want 150", g)
	}
	// Huge iterations -> at least 1.
	if g := GrainSize(time.Second, q, 1.5); g != 1 {
		t.Fatalf("grain = %d, want 1", g)
	}
	if g := GrainSize(0, q, 1.5); g != 1 {
		t.Fatalf("grain = %d, want 1 on zero measurement", g)
	}
}

func TestMoveCostModel(t *testing.T) {
	m := NewMoveCostModel(time.Millisecond, time.Millisecond)
	if est := m.Estimate(10); est != 11*time.Millisecond {
		t.Fatalf("prior estimate = %v, want 11ms", est)
	}
	if m.Estimate(0) != 0 {
		t.Fatal("estimate for zero units should be zero")
	}
}

func mkBalancer(slaves, units int, restricted bool) *Balancer {
	cfg := DefaultConfig(slaves, restricted)
	own := NewBlockOwnership(units, slaves)
	return NewBalancer(cfg, own, NewMoveCostModel(time.Millisecond, 10*time.Microsecond))
}

func allStatuses(rates ...float64) []Status {
	out := make([]Status, len(rates))
	for i, r := range rates {
		out[i] = Status{Rate: r}
	}
	return out
}

func TestBalancerShiftsFromSlowSlave(t *testing.T) {
	b := mkBalancer(4, 100, false)
	var d Decision
	// Feed the imbalance several times so the filter converges.
	for i := 0; i < 5; i++ {
		d = b.Step(allStatuses(50, 100, 100, 100), 100)
	}
	counts := b.Ownership().ActiveCounts()
	if counts[0] >= counts[1] {
		t.Fatalf("slow slave kept as much work as fast ones: %v", counts)
	}
	// Proportional: slave 0 should get about half of the others' share.
	if counts[0] < 10 || counts[0] > 20 {
		t.Fatalf("slave 0 share = %d, want ~14 (100 * 50/350)", counts[0])
	}
	if d.Period < 500*time.Millisecond {
		t.Fatalf("period = %v, below the 500ms floor", d.Period)
	}
}

func TestBalancerBelowThresholdSuppression(t *testing.T) {
	b := mkBalancer(4, 100, false)
	// Rates within a few percent of each other: projected improvement is
	// below 10%, so no movement.
	d := b.Step(allStatuses(100, 101, 99, 100), 100)
	if len(d.Moves) != 0 {
		t.Fatalf("moved work for a %v improvement: %v", d.Improvement, d.Moves)
	}
	if d.Suppressed != "below-threshold" {
		t.Fatalf("Suppressed = %q, want below-threshold", d.Suppressed)
	}
}

func TestBalancerProfitabilityCancel(t *testing.T) {
	cfg := DefaultConfig(2, false)
	own := NewBlockOwnership(10, 2)
	// Absurdly expensive movement: profitability must cancel.
	b := NewBalancer(cfg, own, NewMoveCostModel(time.Hour, time.Hour))
	var d Decision
	for i := 0; i < 5; i++ {
		d = b.Step(allStatuses(10, 100), 10)
	}
	if len(d.Moves) != 0 {
		t.Fatalf("unprofitable move issued: %v", d.Moves)
	}
	if d.Suppressed != "not-profitable" {
		t.Fatalf("Suppressed = %q, want not-profitable", d.Suppressed)
	}
	// Ablation: disabling profitability lets the move through.
	cfg.DisableProfitability = true
	b2 := NewBalancer(cfg, NewBlockOwnership(10, 2), NewMoveCostModel(time.Hour, time.Hour))
	moved := false
	for i := 0; i < 5; i++ {
		if len(b2.Step(allStatuses(10, 100), 10).Moves) > 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("profitability ablation still suppressed movement")
	}
}

func TestBalancerRestrictedKeepsBlocks(t *testing.T) {
	b := mkBalancer(4, 64, true)
	rates := [][]float64{
		{100, 100, 100, 100},
		{20, 100, 100, 100},
		{20, 100, 100, 100},
		{150, 80, 100, 100},
		{150, 80, 100, 100},
	}
	for _, r := range rates {
		d := b.Step(allStatuses(r...), 64)
		for _, m := range d.Moves {
			if m.To-m.From != 1 && m.To-m.From != -1 {
				t.Fatalf("restricted balancer moved between non-adjacent slaves: %v", m)
			}
		}
		if !b.Ownership().IsBlock() {
			t.Fatal("block distribution violated")
		}
	}
}

func TestBalancerDeactivationShrinksWork(t *testing.T) {
	b := mkBalancer(2, 10, true)
	for u := 0; u < 6; u++ {
		b.Ownership().Deactivate(u)
	}
	d := b.Step(allStatuses(100, 100), 4)
	if got := b.Ownership().ActiveTotal(); got != 4 {
		t.Fatalf("ActiveTotal = %d, want 4", got)
	}
	if len(d.Targets) != 2 || d.Targets[0]+d.Targets[1] != 4 {
		t.Fatalf("targets = %v, want to sum to 4", d.Targets)
	}
}

func TestBalancerDeadSlave(t *testing.T) {
	b := mkBalancer(2, 20, false)
	var d Decision
	for i := 0; i < 6; i++ {
		d = b.Step(allStatuses(0, 100), 20)
	}
	counts := b.Ownership().ActiveCounts()
	if counts[0] != 0 {
		t.Fatalf("dead slave still owns %d units (improvement %v)", counts[0], d.Improvement)
	}
}

func TestBalancerSkipAdaptsToShrinkingWork(t *testing.T) {
	// As LU's per-invocation work shrinks, the hook interval shrinks and
	// the skip count must grow to keep the same period (paper §4.7).
	b := mkBalancer(2, 100, true)
	dBig := b.Step(allStatuses(100, 100), 1000) // 10s of work between hooks
	dSmall := b.Step(allStatuses(100, 100), 10) // 50ms of work between hooks
	if dSmall.SkipHooks <= dBig.SkipHooks {
		t.Fatalf("skip did not grow as work shrank: big=%d small=%d", dBig.SkipHooks, dSmall.SkipHooks)
	}
}

func TestBalancerFilterAblation(t *testing.T) {
	cfg := DefaultConfig(2, false)
	cfg.DisableFilter = true
	b := NewBalancer(cfg, NewBlockOwnership(20, 2), NewMoveCostModel(time.Millisecond, time.Microsecond))
	// A single-sample spike immediately moves work when the filter is off.
	d := b.Step(allStatuses(10, 100), 20)
	if len(d.Moves) == 0 {
		t.Fatal("unfiltered balancer ignored a drastic rate difference")
	}
}

func TestBalancerStatusCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched status count accepted")
		}
	}()
	mkBalancer(3, 9, false).Step(allStatuses(1, 2), 9)
}

func TestPeriodShrinksWhenMovementCheaper(t *testing.T) {
	// A faster data plane (the binary bulk codec) makes every movement
	// cheaper; the adaptive period must come down with the movement cost.
	// Costs model the measured codec gap (~5x).
	slow := NewMoveCostModel(time.Millisecond, 300*time.Millisecond)
	fast := NewMoveCostModel(time.Millisecond, 60*time.Millisecond)
	q := 10 * time.Millisecond
	pSlow := TargetPeriod(PeriodInputs{Quantum: q, MoveCost: slow.Estimate(100)})
	pFast := TargetPeriod(PeriodInputs{Quantum: q, MoveCost: fast.Estimate(100)})
	if pFast >= pSlow {
		t.Fatalf("period did not shrink with cheaper movement: fast %v, slow %v", pFast, pSlow)
	}
	if pSlow < 2*pFast {
		t.Errorf("5x cheaper movements shrank the period only from %v to %v", pSlow, pFast)
	}
	// Arbitrarily cheap movement floors at the quantum bound instead of
	// collapsing to zero.
	cheap := NewMoveCostModel(0, 10*time.Nanosecond)
	if p := TargetPeriod(PeriodInputs{Quantum: q, MoveCost: cheap.Estimate(100)}); p != 500*time.Millisecond {
		t.Fatalf("period = %v, want the 500ms floor", p)
	}
}

// TestRestrictedMovesKeepInactiveUnitsInPlace: a pipelined loop whose range
// starts past the first slave's block leaves that slave only inactive
// units, which the loop's first active unit still reads. Restricted
// movement must not hand the idle slave active units across them: their
// owner would then read from the idle slave and feed it, and the pipeline
// would wait on itself. Every unit, active or not, stays in slave order.
func TestRestrictedMovesKeepInactiveUnitsInPlace(t *testing.T) {
	for _, slaves := range []int{2, 3, 4} {
		b := mkBalancer(slaves, 16, true)
		b.Ownership().RetireOutside(10, 15)
		for i := 0; i < 5; i++ {
			rates := make([]float64, slaves)
			for s := range rates {
				rates[s] = 100
			}
			rates[slaves-1] = 10
			b.Step(allStatuses(rates...), 64)
		}
		last := 0
		for u := 0; u < 16; u++ {
			if s := b.Ownership().OwnerOf(u); s < last {
				t.Fatalf("%d slaves: unit %d on slave %d after a unit on slave %d", slaves, u, s, last)
			} else {
				last = s
			}
		}
		// With two slaves the idle one lies wholly below the active range
		// and can take nothing; with more, a neighbour can.
		if got := b.Ownership().ActiveCounts(); slaves > 2 && got[slaves-1] >= 4 {
			t.Errorf("%d slaves: the slow slave kept its work: %v", slaves, got)
		}
	}
}
