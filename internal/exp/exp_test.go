package exp

import (
	"testing"

	"repro/internal/depend"
)

// The shape tests read the checked-in BENCH_*.json files (full scale, kept
// byte-exact by TestCheckedInArtifacts) and assert the paper's claims on
// them, so they also run under -short.

func TestTable1MatchesPaper(t *testing.T) {
	// Paper's Table 1, one column per program; a property left out is "no".
	want := map[string]depend.Properties{
		"mm":  {RepeatedExecution: true},
		"sor": {LoopCarriedDeps: true, CommOutsideLoop: true, RepeatedExecution: true},
		"lu": {CommOutsideLoop: true, RepeatedExecution: true, VaryingLoopBounds: true,
			IndexDependentSize: true},
	}
	got := paper(t).Table1
	if len(got) != len(want) {
		t.Errorf("table1 has %d programs, want %d", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %v, want %v", name, got[name], w)
		}
	}
}

// overhead is DLB's elapsed time over the static distribution's, minus one.
func overhead(r SweepRow) float64 { return r.TimeDLB.Seconds()/r.TimePar.Seconds() - 1 }

// checkSweep asserts what every Figure 5-8 sweep shares: one row per P up
// to Full.MaxP, and the static run's speedup at P=1 — 1 on a dedicated
// machine, 0.5 when a competing task takes half of slave 0.
func checkSweep(t *testing.T, sw *Sweep, p1Speedup float64) {
	t.Helper()
	if len(sw.Rows) != Full.MaxP {
		t.Fatalf("%s: %d rows, want %d", sw.Name, len(sw.Rows), Full.MaxP)
	}
	if s := sw.Rows[0].SpeedupPar; s < 0.9*p1Speedup || s > 1.1*p1Speedup {
		t.Errorf("%s: P=1 speedup = %.3f, want ~%.1f", sw.Name, s, p1Speedup)
	}
}

// Figure 5: near-linear MM speedup, and "the overhead of load balancing is
// quite small" in the dedicated environment.
func TestFig5Shape(t *testing.T) {
	sw := paper(t).Fig5
	checkSweep(t, sw, 1)
	for _, r := range sw.Rows {
		if o := overhead(r); o >= 0.01 {
			t.Errorf("P=%d: DLB overhead %.2f%%, want < 1%%", r.P, o*100)
		}
	}
	if last := sw.Rows[len(sw.Rows)-1]; last.SpeedupDLB < 7.5 {
		t.Errorf("DLB speedup at P=%d is %.2f, want >= 7.5", last.P, last.SpeedupDLB)
	}
}

// Figure 6: SOR's speedup grows with P, slightly sublinear; DLB overhead is
// negligible.
func TestFig6Shape(t *testing.T) {
	sw := paper(t).Fig6
	checkSweep(t, sw, 1)
	for i, r := range sw.Rows {
		if o := overhead(r); o >= 0.01 {
			t.Errorf("P=%d: DLB overhead %.2f%%, want < 1%%", r.P, o*100)
		}
		if i > 0 && r.SpeedupDLB <= sw.Rows[i-1].SpeedupDLB {
			t.Errorf("P=%d: SOR speedup %.3f does not grow past P=%d's %.3f",
				r.P, r.SpeedupDLB, sw.Rows[i-1].P, sw.Rows[i-1].SpeedupDLB)
		}
	}
}

// Figure 7b: with a constant competing load on slave 0 the static
// distribution's efficiency collapses to the loaded machine's staircase,
// while DLB's stays near the dedicated level.
func TestFig7DLBWinsUnderLoad(t *testing.T) {
	sw := paper(t).Fig7
	checkSweep(t, sw, 0.5)
	for _, r := range sw.Rows[1:] {
		if r.EffDLB < 0.9 || r.EffPar > 0.67 {
			t.Errorf("P=%d: eff_dlb %.3f, eff_par %.3f; want eff_dlb >= 0.9 and eff_par <= 0.67",
				r.P, r.EffDLB, r.EffPar)
		}
		if r.TimeDLB >= r.TimePar {
			t.Errorf("P=%d: t_dlb %v >= t_par %v", r.P, r.TimeDLB, r.TimePar)
		}
	}
}

// Figure 8b: "the efficiencies for the load balanced applications are
// slightly lower than in the dedicated environment, but still higher than
// those of the applications without load balancing."
func TestFig8DLBWinsUnderLoad(t *testing.T) {
	rep := paper(t)
	sw, dedicated := rep.Fig8, rep.Fig6
	checkSweep(t, sw, 0.5)
	for i, r := range sw.Rows[1:] {
		ded := dedicated.Rows[i+1]
		if !(r.EffDLB < ded.EffDLB && r.EffDLB > r.EffPar) {
			t.Errorf("P=%d: eff_dlb %.3f, want below dedicated %.3f and above static %.3f",
				r.P, r.EffDLB, ded.EffDLB, r.EffPar)
		}
		if r.TimeDLB >= r.TimePar {
			t.Errorf("P=%d: t_dlb %v >= t_par %v", r.P, r.TimeDLB, r.TimePar)
		}
	}
}

// Figure 9: "the work assignment tracks the available processing power but
// lags behind by two load balancing periods". A balancing period is one
// round, and slave 0 reports once a round, so a period is one sample of the
// series; the lag is counted in samples, not seconds, because the rounds
// stretch while slave 0 is loaded. A step is a crossing of the midpoint
// between a series' minimum and maximum.
func TestFig9Tracking(t *testing.T) {
	smp := paper(t).Fig9.Samples
	if len(smp) < 5 {
		t.Fatalf("too few samples: %d", len(smp))
	}
	raw := highs(smp, func(s Fig9Sample) float64 { return s.Raw })
	work := highs(smp, func(s Fig9Sample) float64 { return s.Work })
	rawSteps, workSteps := 0, 0
	for i := 1; i < len(smp); i++ {
		if work[i] != work[i-1] {
			workSteps++
		}
		if raw[i] == raw[i-1] {
			continue
		}
		rawSteps++
		lag := 0
		for i+lag < len(smp) && work[i+lag] != raw[i] {
			lag++
		}
		if lag < 1 || lag > 2 {
			t.Errorf("raw rate stepped at %.2fs; work followed %d periods later, want 1 or 2", smp[i].T, lag)
		}
	}
	// 72 s of a 20 s square wave: seven steps, each followed once.
	if rawSteps < 6 || workSteps != rawSteps {
		t.Errorf("raw rate stepped %d times, work %d; want >= 6 and equal", rawSteps, workSteps)
	}
	// The filtered rate must be smoother than the raw rate: compare total
	// variation.
	var tvRaw, tvFiltered float64
	for i := 1; i < len(smp); i++ {
		tvRaw += abs(smp[i].Raw - smp[i-1].Raw)
		tvFiltered += abs(smp[i].Filtered - smp[i-1].Filtered)
	}
	if tvFiltered > tvRaw {
		t.Errorf("filtered rate rougher than raw: %.2f vs %.2f", tvFiltered, tvRaw)
	}
}

// highs marks each sample above the midpoint of v's range. A range under
// 0.2 (of the maximum rate, or of the even share) counts as flat: no
// sample is marked, so the series has no step.
func highs(smp []Fig9Sample, v func(Fig9Sample) float64) []bool {
	lo, hi := v(smp[0]), v(smp[0])
	for _, s := range smp {
		lo, hi = min(lo, v(s)), max(hi, v(s))
	}
	out := make([]bool, len(smp))
	if hi-lo < 0.2 {
		return out
	}
	for i, s := range smp {
		out[i] = v(s) > (lo+hi)/2
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// §3.3: at congested latency the synchronous protocol puts a round trip on
// every slave's critical path, so pipelining wins.
func TestAblationPipelining(t *testing.T) {
	rows := paper(t).Pipelining
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if high := rows[1]; high.TimeSync < high.TimePipe {
		t.Errorf("at %v latency synchronous (%v) beat pipelined (%v)",
			high.Latency, high.TimeSync, high.TimePipe)
	}
}

// §4.4: a U-shape over the strip grain, with the 1.5-quantum rule near the
// bottom.
func TestAblationGrain(t *testing.T) {
	rows := paper(t).Grain
	var fine, auto, huge GrainRow
	best := rows[0]
	for _, r := range rows {
		switch {
		case r.Grain == 1:
			fine = r
		case r.Grain == 0:
			auto = r
		case r.Grain >= 100:
			huge = r
		}
		if r.Elapsed < best.Elapsed {
			best = r
		}
	}
	if auto.Used <= 1 {
		t.Errorf("automatic grain = %d, want > 1 (1.5-quantum rule)", auto.Used)
	}
	// One block per sweep serializes the pipeline at sweep granularity and
	// must be clearly worse than the automatic grain.
	if huge.Elapsed.Seconds() < 1.2*auto.Elapsed.Seconds() {
		t.Errorf("whole-sweep blocks (%v) not clearly worse than auto (%v)", huge.Elapsed, auto.Elapsed)
	}
	// There is a sweet spot: some intermediate grain beats the fine-grain
	// pipeline (message overhead) and the automatic grain is within 25% of
	// the best observed.
	if best.Elapsed >= fine.Elapsed {
		t.Errorf("no intermediate grain beat grain 1 (%v)", fine.Elapsed)
	}
	if auto.Elapsed.Seconds() > 1.25*best.Elapsed.Seconds() {
		t.Errorf("auto grain %v more than 25%% off the best %v (grain %d)", auto.Elapsed, best.Elapsed, best.Used)
	}
}

// §3.2: the refinements exist "to prevent excessive work movement".
func TestAblationRefinements(t *testing.T) {
	byName := map[string]RefinementRow{}
	for _, r := range paper(t).Refinements {
		byName[r.Variant] = r
	}
	all, none := byName["all refinements"], byName["none"]
	if none.Moves < all.Moves {
		t.Errorf("removing all refinements reduced movement: %d vs %d", none.Moves, all.Moves)
	}
	if all.UnitsMoved > none.UnitsMoved {
		t.Errorf("refinements moved more data than none: %d vs %d", all.UnitsMoved, none.UnitsMoved)
	}
}

// §4.7: as LU's active set shrinks, the balancer skips more hooks between
// interactions.
func TestAblationLUAdaptive(t *testing.T) {
	rows := paper(t).LU.Rows
	if len(rows) < 3 {
		t.Fatalf("too few phases: %d", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.WorkLeft >= first.WorkLeft {
		t.Errorf("active work did not shrink: %d -> %d", first.WorkLeft, last.WorkLeft)
	}
	if last.SkipHooks < first.SkipHooks {
		t.Errorf("skip count shrank as work shrank: %d -> %d", first.SkipHooks, last.SkipHooks)
	}
}

// §6: the related-work comparison on MM, 8 slaves.
func TestBaselinesComparison(t *testing.T) {
	rows := paper(t).Baselines
	get := func(scenario, strategy string) BaselineRow {
		for _, r := range rows {
			if r.Scenario == scenario && r.Strategy == strategy {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", scenario, strategy)
		return BaselineRow{}
	}
	// Under load, the adaptive strategies with fine-enough granularity
	// beat the static distribution. (GSS is listed but its first chunk of
	// N/P units lands on the slow slave before any speed information
	// exists — the classic GSS weakness — so it is not asserted here.)
	static := get("one loaded", "static block")
	for _, s := range []string{"DLB (this paper)", "self-sched fixed-4", "diffusion"} {
		if r := get("one loaded", s); r.Elapsed >= static.Elapsed {
			t.Errorf("%s (%v) did not beat static (%v) under load", s, r.Elapsed, static.Elapsed)
		}
	}
	// The central queue ships every unit's data through the master; DLB
	// moves only the rebalanced surplus (§3.1's bottleneck argument).
	dlbRow := get("one loaded", "DLB (this paper)")
	ssRow := get("one loaded", "self-sched fixed-4")
	if dlbRow.MBMoved >= ssRow.MBMoved {
		t.Errorf("DLB moved %v MB, self-scheduling %v MB; expected DLB to move less",
			dlbRow.MBMoved, ssRow.MBMoved)
	}
	// In the dedicated environment DLB moves (almost) nothing.
	if r := get("dedicated", "DLB (this paper)"); r.MBMoved > ssRow.MBMoved/4 {
		t.Errorf("DLB moved %v MB in the dedicated environment", r.MBMoved)
	}
}

// The conclusions: "the load balancer can rapidly adjust the work
// distribution in a heterogeneous environment".
func TestHeterogeneousAdaptation(t *testing.T) {
	for _, r := range paper(t).Heterogeneous {
		homogeneous := true
		for _, s := range r.Speeds {
			if s != r.Speeds[0] {
				homogeneous = false
			}
		}
		if homogeneous {
			// Control: DLB adds no benefit but also no real harm.
			if r.TimeDLB.Seconds() > 1.1*r.TimePar.Seconds() {
				t.Errorf("homogeneous control: DLB overhead %v vs %v", r.TimeDLB, r.TimePar)
			}
			continue
		}
		// Mixed speeds: static is gated by the slowest machine; DLB must
		// recover a large part of the gap toward the ideal speedup.
		if r.SpeedupDLB <= r.SpeedupPar {
			t.Errorf("speeds %v: DLB speedup %.2f <= static %.2f", r.Speeds, r.SpeedupDLB, r.SpeedupPar)
		}
		if r.SpeedupDLB < 0.7*r.Ideal {
			t.Errorf("speeds %v: DLB speedup %.2f below 70%% of ideal %.2f", r.Speeds, r.SpeedupDLB, r.Ideal)
		}
	}
}

func TestFaultTolerance(t *testing.T) {
	var rep FaultReport
	checkedIn(t, "fault", &rep)
	byKey := map[string]FaultRow{}
	for _, r := range rep.Rows {
		byKey[r.App+"/"+r.Scenario] = r
	}
	if len(byKey) != 7 {
		t.Errorf("%d scenarios, want 7 (mm: 5, sor: 2)", len(byKey))
	}
	for key, r := range byKey {
		if r.MaxDiff != 0 {
			t.Errorf("%s: result differs from sequential reference by %g", key, r.MaxDiff)
		}
	}
	free, crash := byKey["mm/fault-free"], byKey["mm/crash @30s"]
	if crash.Recoveries < 1 || crash.Evicted != 1 {
		t.Errorf("mm crash: recoveries=%d evicted=%d, want >=1 and 1", crash.Recoveries, crash.Evicted)
	}
	// Acceptance bound: losing a slave near the end of the run costs less
	// than 25% of the fault-free efficiency.
	if loss := (free.Eff - crash.Eff) / free.Eff; loss >= 0.25 {
		t.Errorf("mm crash efficiency loss %.1f%% (free %.3f, crash %.3f), want <25%%",
			loss*100, free.Eff, crash.Eff)
	}
	if r := byKey["mm/stall 1s @20s (tolerated)"]; r.Recoveries != 0 || r.Evicted != 0 {
		t.Errorf("tolerated stall: recoveries=%d evicted=%d, want 0/0", r.Recoveries, r.Evicted)
	}
	if r := byKey["mm/stall 20s @20s (evicted)"]; r.Recoveries < 1 || r.Evicted != 1 {
		t.Errorf("evicting stall: recoveries=%d evicted=%d, want >=1 and 1", r.Recoveries, r.Evicted)
	}
	if r := byKey["mm/join @10s"]; r.Joined != 1 {
		t.Errorf("join: joined=%d, want 1", r.Joined)
	}
	if r := byKey["sor/crash @30s"]; r.Recoveries < 1 || r.Evicted != 1 {
		t.Errorf("sor crash: recoveries=%d evicted=%d, want >=1 and 1", r.Recoveries, r.Evicted)
	}
}

func TestOverlapSweep(t *testing.T) {
	var rep OverlapReport
	checkedIn(t, "overlap", &rep)
	if len(rep.Rows) != 18 {
		t.Fatalf("got %d rows, want 18 (2 progs x 3 costs x 3 slave counts)", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.Speedup < 0.999 {
			t.Errorf("%s P=%d %s: overlap slower than sync (%.3fx)", r.Prog, r.Slaves, r.FlopCost, r.Speedup)
		}
		if r.Fallback != 0 {
			t.Errorf("%s P=%d %s: unexpected overlap fallback (%d)", r.Prog, r.Slaves, r.FlopCost, r.Fallback)
		}
		switch r.Prog {
		case "jacobi":
			if r.Rounds == 0 {
				t.Errorf("jacobi P=%d %s: no overlap rounds", r.Slaves, r.FlopCost)
			}
		case "sor":
			if r.Rounds != 0 {
				t.Errorf("sor P=%d %s: pipelined program overlapped (%d rounds)", r.Slaves, r.FlopCost, r.Rounds)
			}
			if r.Speedup != 1.0 {
				t.Errorf("sor P=%d %s: speedup %.3fx, want exactly 1.0 (sync fallback)", r.Slaves, r.FlopCost, r.Speedup)
			}
		}
	}
	// The point of the optimization: at least one comm-bound jacobi config
	// must show a real win.
	if best := rep.Best["jacobi"]; best < 1.2 {
		t.Errorf("best jacobi speedup %.2fx, want >= 1.2x", best)
	}
}
