package exp

import (
	"strings"
	"testing"
)

// TestScaleSweep runs the quick wall-finder sweep and checks its defining
// shape: the flat master's per-round coordination cost grows with P while
// the hierarchical master's stays strictly cheaper at the wide end, and
// the artifact renders with every row.
func TestScaleSweep(t *testing.T) {
	rep, text := runBench[ScaleReport](t, "scale", "BENCH_scale.json")
	if len(rep.Rows) < 3 {
		t.Fatalf("sweep produced %d rows", len(rep.Rows))
	}
	first, last := rep.Rows[0], rep.Rows[len(rep.Rows)-1]
	if last.FlatMasterRound <= first.FlatMasterRound {
		t.Errorf("flat master per-round cost did not grow with P: %v at P=%d vs %v at P=%d",
			first.FlatMasterRound, first.P, last.FlatMasterRound, last.P)
	}
	if last.HierMasterRound >= last.FlatMasterRound {
		t.Errorf("hier master per-round %v not cheaper than flat %v at P=%d",
			last.HierMasterRound, last.FlatMasterRound, last.P)
	}
	for _, r := range rep.Rows {
		if r.FlatRounds == 0 || r.HierRounds == 0 {
			t.Errorf("P=%d: no balancing rounds (flat %d, hier %d)", r.P, r.FlatRounds, r.HierRounds)
		}
		if r.FlatEff <= 0 || r.HierEff <= 0 {
			t.Errorf("P=%d: non-positive efficiency (flat %.3f, hier %.3f)", r.P, r.FlatEff, r.HierEff)
		}
	}
	for _, want := range []string{"crossover", "mstr/rd"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered table missing %q:\n%s", want, text)
		}
	}
}
