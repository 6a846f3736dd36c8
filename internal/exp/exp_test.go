package exp

import (
	"strings"
	"testing"
)

func TestTable1MatchesPaper(t *testing.T) {
	tab, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	// Paper's Table 1, row by row: MM, SOR, LU.
	want := [][]string{
		{"no", "yes", "no"},   // loop-carried dependences
		{"no", "yes", "yes"},  // communication outside loop
		{"yes", "yes", "yes"}, // repeated execution of loop
		{"no", "no", "yes"},   // varying loop bounds
		{"no", "no", "yes"},   // index-dependent iteration size
		{"no", "no", "no"},    // data-dependent iteration size
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(want))
	}
	for i, w := range want {
		got := tab.Rows[i][1:]
		for c := range w {
			if got[c] != w[c] {
				t.Errorf("row %q col %d: got %s, want %s", tab.Rows[i][0], c, got[c], w[c])
			}
		}
	}
}

func TestFig5Shape(t *testing.T) {
	sw, err := Fig5(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Rows) != Quick.MaxP {
		t.Fatalf("rows = %d, want %d", len(sw.Rows), Quick.MaxP)
	}
	// Speedup grows with P and load balancing overhead is small in the
	// dedicated environment (Figure 5's key claims).
	last := sw.Rows[len(sw.Rows)-1]
	if last.SpeedupDLB < float64(Quick.MaxP)*0.6 {
		t.Errorf("DLB speedup at P=%d is %.2f, want near-linear", last.P, last.SpeedupDLB)
	}
	for _, r := range sw.Rows {
		overhead := r.TimeDLB.Seconds()/r.TimePar.Seconds() - 1
		if overhead > 0.15 {
			t.Errorf("P=%d: DLB overhead %.1f%% in dedicated environment", r.P, overhead*100)
		}
	}
	if sw.Rows[0].SpeedupPar < 0.9 || sw.Rows[0].SpeedupPar > 1.1 {
		t.Errorf("P=1 speedup = %.2f, want ~1", sw.Rows[0].SpeedupPar)
	}
}

func TestFig6Shape(t *testing.T) {
	sw, err := Fig6(Quick)
	if err != nil {
		t.Fatal(err)
	}
	last := sw.Rows[len(sw.Rows)-1]
	if last.SpeedupDLB <= sw.Rows[0].SpeedupDLB {
		t.Errorf("SOR speedup does not grow: P=1 %.2f vs P=%d %.2f",
			sw.Rows[0].SpeedupDLB, last.P, last.SpeedupDLB)
	}
	for _, r := range sw.Rows {
		overhead := r.TimeDLB.Seconds()/r.TimePar.Seconds() - 1
		if overhead > 0.20 {
			t.Errorf("P=%d: DLB overhead %.1f%%", r.P, overhead*100)
		}
	}
}

func TestFig7DLBWinsUnderLoad(t *testing.T) {
	sw, err := Fig7(Quick)
	if err != nil {
		t.Fatal(err)
	}
	// With a constant competing load on slave 0, dynamic load balancing
	// must beat the static distribution for P >= 2 (Figure 7b).
	for _, r := range sw.Rows[1:] {
		if r.EffDLB <= r.EffPar {
			t.Errorf("P=%d: eff_dlb %.3f <= eff_par %.3f", r.P, r.EffDLB, r.EffPar)
		}
		if r.TimeDLB >= r.TimePar {
			t.Errorf("P=%d: t_dlb %v >= t_par %v", r.P, r.TimeDLB, r.TimePar)
		}
	}
}

func TestFig8DLBWinsUnderLoad(t *testing.T) {
	sw, err := Fig8(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sw.Rows[1:] {
		if r.TimeDLB >= r.TimePar {
			t.Errorf("P=%d: t_dlb %v >= t_par %v", r.P, r.TimeDLB, r.TimePar)
		}
	}
}

func TestFig9Tracking(t *testing.T) {
	f, err := Fig9(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Work.V) < 5 {
		t.Fatalf("too few samples: %d", len(f.Work.V))
	}
	// Work must vary (tracking the oscillating load).
	min, max := f.Work.V[0], f.Work.V[0]
	for _, v := range f.Work.V {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max-min < 0.2 {
		t.Errorf("work assignment varied only %.2f of even share", max-min)
	}
	// The filtered rate must be smoother than the raw rate: compare total
	// variation.
	tv := func(v []float64) float64 {
		s := 0.0
		for i := 1; i < len(v); i++ {
			d := v[i] - v[i-1]
			if d < 0 {
				d = -d
			}
			s += d
		}
		return s
	}
	if tv(f.Filtered.V) > tv(f.Raw.V) {
		t.Errorf("filtered rate rougher than raw: %.2f vs %.2f", tv(f.Filtered.V), tv(f.Raw.V))
	}
	if !strings.Contains(f.Render(), "CSV") {
		t.Error("render missing CSV section")
	}
}

func TestAblationPipelining(t *testing.T) {
	rows, err := AblationPipelining(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	high := rows[1]
	if high.TimeSync < high.TimePipe {
		t.Errorf("at %v latency synchronous (%v) beat pipelined (%v)",
			high.Latency, high.TimeSync, high.TimePipe)
	}
}

func TestAblationGrain(t *testing.T) {
	rows, err := AblationGrain(Quick)
	if err != nil {
		t.Fatal(err)
	}
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

func TestAblationRefinements(t *testing.T) {
	rows, err := AblationRefinements(Quick)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]RefinementRow{}
	for _, r := range rows {
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

func TestAblationLUAdaptive(t *testing.T) {
	res, err := AblationLUAdaptive(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 3 {
		t.Fatalf("too few phases: %d", len(res.Rows))
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.WorkLeft >= first.WorkLeft {
		t.Errorf("active work did not shrink: %d -> %d", first.WorkLeft, last.WorkLeft)
	}
	if last.SkipHooks < first.SkipHooks {
		t.Errorf("skip count shrank as work shrank: %d -> %d", first.SkipHooks, last.SkipHooks)
	}
}

func TestSweepRender(t *testing.T) {
	sw, err := Fig5(Scale{MM: 32, MaxP: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := sw.Render()
	for _, want := range []string{"Figure 5", "speedup_dlb", "eff_par"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestBaselinesComparison(t *testing.T) {
	rows, err := Baselines(Quick)
	if err != nil {
		t.Fatal(err)
	}
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
	if out := RenderBaselines(rows); !strings.Contains(out, "diffusion") {
		t.Error("render missing diffusion row")
	}
}

func TestHeterogeneousAdaptation(t *testing.T) {
	rows, err := Heterogeneous(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
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
	if out := RenderHeterogeneous(rows); !strings.Contains(out, "speedup_dlb") {
		t.Error("render missing columns")
	}
}

func TestFig7FullScaleGolden(t *testing.T) {
	// The simulation is deterministic, so the full-scale Figure 7 numbers
	// in EXPERIMENTS.md are pinned here (with a small tolerance so
	// intentional model tweaks only require updating one place).
	if testing.Short() {
		t.Skip("full-scale run")
	}
	sw, err := Fig7(Full)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		p    int
		tDLB float64 // seconds
		eff  float64
	}{
		{2, 172.69, 0.965},
		{4, 73.47, 0.972},
		{8, 36.87, 0.904},
	}
	for _, w := range want {
		r := sw.Rows[w.p-1]
		if rel(r.TimeDLB.Seconds(), w.tDLB) > 0.02 {
			t.Errorf("P=%d: t_dlb = %.2fs, golden %.2fs", w.p, r.TimeDLB.Seconds(), w.tDLB)
		}
		if rel(r.EffDLB, w.eff) > 0.02 {
			t.Errorf("P=%d: eff_dlb = %.3f, golden %.3f", w.p, r.EffDLB, w.eff)
		}
	}
}

func rel(a, b float64) float64 {
	if b == 0 {
		return a
	}
	d := a/b - 1
	if d < 0 {
		d = -d
	}
	return d
}

func TestFaultTolerance(t *testing.T) {
	rows, err := FaultTolerance(Quick)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]FaultRow{}
	for _, r := range rows {
		byKey[r.App+"/"+r.Scenario] = r
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
	out := RenderFaultTolerance(rows)
	if !strings.Contains(out, "crash @30s") || !strings.Contains(out, "maxdiff") {
		t.Errorf("render missing expected columns:\n%s", out)
	}
}

func TestOverlapSweep(t *testing.T) {
	rep, text := runBench[OverlapReport](t, "overlap", "BENCH_overlap.json")
	if len(rep.Rows) != 12 {
		t.Fatalf("got %d rows, want 12 (2 progs x 3 costs x 2 slave counts)", len(rep.Rows))
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
	if !strings.Contains(text, "best speedup") {
		t.Errorf("render missing best speedup:\n%s", text)
	}
}
