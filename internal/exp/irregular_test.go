package exp

import "testing"

// TestIrregular checks the irregular experiment's defining claim on the
// checked-in report: on both skewed workloads the learned cost model beats
// the uniform assumption on makespan and on weighted load imbalance.
func TestIrregular(t *testing.T) {
	var rep IrregularReport
	checkedIn(t, "irregular", &rep)
	if len(rep.Rows) != 4 {
		t.Fatalf("got %d rows, want 4 (2 programs x 2 models)", len(rep.Rows))
	}
	byProg := map[string]map[string]IrregularRow{}
	for _, r := range rep.Rows {
		if byProg[r.Prog] == nil {
			byProg[r.Prog] = map[string]IrregularRow{}
		}
		byProg[r.Prog][r.CostModel] = r
	}
	for prog, rows := range byProg {
		uni, lrn := rows["uniform"], rows["learned"]
		if lrn.ElapsedS >= uni.ElapsedS {
			t.Errorf("%s: learned makespan %.4fs not better than uniform %.4fs",
				prog, lrn.ElapsedS, uni.ElapsedS)
		}
		if lrn.Imbalance >= uni.Imbalance {
			t.Errorf("%s: learned imbalance %.3f not better than uniform %.3f",
				prog, lrn.Imbalance, uni.Imbalance)
		}
		if g := rep.Gains[prog]; g <= 1 {
			t.Errorf("%s: makespan gain %.3f, want > 1", prog, g)
		}
	}
}
