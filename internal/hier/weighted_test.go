package hier

import (
	"math"
	"testing"
)

func TestFlowsWeightedEqualizeCompletionTimes(t *testing.T) {
	// Same unit backlog on both sides, but group 0's units are four times
	// as heavy. Unit-count Flows sees perfect balance; FlowsWeighted sees
	// group 0 holding 4x the work and shifts weight left-to-right.
	sums := []Summary{
		{Rate: 10, Backlog: 100, Weight: 400},
		{Rate: 10, Backlog: 100, Weight: 100},
	}
	if f := (Diffuser{Alpha: 1}).Flows(sums); f[0] != 0 {
		t.Fatalf("unit-count flow %d, want 0 (backlogs equal)", f[0])
	}
	flows := Diffuser{Alpha: 1}.FlowsWeighted(sums)
	if len(flows) != 1 || flows[0] <= 0 {
		t.Fatalf("weighted flows = %v, want one left-to-right shift", flows)
	}
	tl := (400 - flows[0]) / 10
	tr := (100 + flows[0]) / 10
	if math.Abs(tl-tr) > 1e-9 {
		t.Fatalf("weighted completion times %.2f vs %.2f not equalized", tl, tr)
	}
}

func TestFlowsWeightedUnderRelaxed(t *testing.T) {
	sums := []Summary{
		{Rate: 10, Backlog: 20, Weight: 200},
		{Rate: 10, Backlog: 0, Weight: 0},
	}
	full := Diffuser{Alpha: 1}.FlowsWeighted(sums)[0]
	half := Diffuser{Alpha: 0.5}.FlowsWeighted(sums)[0]
	if full != 100 {
		t.Fatalf("full correction moved %g, want 100", full)
	}
	if half != 50 {
		t.Fatalf("half correction moved %g, want 50", half)
	}
}

func TestFlowsWeightedClamp(t *testing.T) {
	// The middle group's small weighted backlog must not be overdrawn by
	// both neighbors draining it in the same exchange.
	sums := []Summary{
		{Rate: 100, Backlog: 0, Weight: 0},
		{Rate: 1, Backlog: 1, Weight: 3},
		{Rate: 100, Backlog: 0, Weight: 0},
	}
	flows := Diffuser{Alpha: 1}.FlowsWeighted(sums)
	prov := []float64{0, 3, 0}
	for b, f := range flows {
		prov[b] -= f
		prov[b+1] += f
	}
	for g, w := range prov {
		if w < 0 {
			t.Fatalf("group %d driven to weight %g (flows %v)", g, w, flows)
		}
	}
}

func TestFlowsWeightedDeadGroupDrains(t *testing.T) {
	// A group with no measured rate pushes its weighted backlog to the
	// live neighbor rather than wedging on an infinite completion time.
	sums := []Summary{
		{Rate: 0, Backlog: 4, Weight: 40},
		{Rate: 10, Backlog: 1, Weight: 10},
	}
	flows := Diffuser{Alpha: 0.5}.FlowsWeighted(sums)
	if len(flows) != 1 || flows[0] <= 0 {
		t.Fatalf("flows = %v, want positive drain from dead group", flows)
	}
}
