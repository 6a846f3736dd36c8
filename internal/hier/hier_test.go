package hier

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestSplitEven(t *testing.T) {
	p, err := Split(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Groups() != 4 || p.Slaves() != 16 {
		t.Fatalf("got %d groups over %d slaves", p.Groups(), p.Slaves())
	}
	for g := 0; g < 4; g++ {
		if p.Size(g) != 4 {
			t.Errorf("group %d size %d, want 4", g, p.Size(g))
		}
		if p.Leader(g) != 4*g {
			t.Errorf("group %d leader %d, want %d", g, p.Leader(g), 4*g)
		}
	}
	if got := p.Members(2); !reflect.DeepEqual(got, []int{8, 9, 10, 11}) {
		t.Errorf("members(2) = %v", got)
	}
}

func TestSplitUneven(t *testing.T) {
	p, err := Split(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for g := 0; g < p.Groups(); g++ {
		sz := p.Size(g)
		if sz < 3 || sz > 4 {
			t.Errorf("group %d size %d, want 3 or 4", g, sz)
		}
		total += sz
	}
	if total != 10 {
		t.Fatalf("sizes sum to %d", total)
	}
	// Every id maps to the group whose range covers it, and leaders
	// identify themselves.
	for id := 0; id < 10; id++ {
		g := p.GroupOf(id)
		if id < p.Start(g) || id >= p.End(g) {
			t.Errorf("GroupOf(%d) = %d with range [%d,%d)", id, g, p.Start(g), p.End(g))
		}
		if p.IsLeader(id) != (id == p.Leader(g)) {
			t.Errorf("IsLeader(%d) inconsistent", id)
		}
	}
}

func TestGroupOfJoinerFoldsIntoLastGroup(t *testing.T) {
	p, err := Split(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g := p.GroupOf(11); g != 1 {
		t.Fatalf("joiner slot mapped to group %d, want last group 1", g)
	}
}

func TestSplitErrors(t *testing.T) {
	if _, err := Split(4, 0); !errors.Is(err, ErrNoGroups) {
		t.Errorf("Split(4,0) = %v, want ErrNoGroups", err)
	}
	if _, err := Split(4, 5); !errors.Is(err, ErrTooManyGroups) {
		t.Errorf("Split(4,5) = %v, want ErrTooManyGroups", err)
	}
	if _, err := Split(0, 1); !errors.Is(err, ErrTooManyGroups) {
		t.Errorf("Split(0,1) = %v, want ErrTooManyGroups", err)
	}
}

// applyFlows returns the per-group backlogs after the given boundary
// flows: the diffuser tests' conservation oracle. It panics if a flow drives
// a backlog negative — Flows never emits such a schedule.
func applyFlows(backlogs, flows []int) []int {
	out := append([]int(nil), backlogs...)
	for b, f := range flows {
		out[b] -= f
		out[b+1] += f
		if out[b] < 0 || out[b+1] < 0 {
			panic(fmt.Sprintf("hier: flow %d across boundary %d overdraws backlog", f, b))
		}
	}
	return out
}

func TestFlowsEqualizeCompletionTimes(t *testing.T) {
	// Group 0 is twice as fast with the same backlog: work should flow
	// right-to-left... no — group 1 is slower, so its completion time is
	// larger and units flow from group 1 to group 0 (negative flow).
	sums := []Summary{
		{Rate: 20, Backlog: 100},
		{Rate: 10, Backlog: 100},
	}
	flows := Diffuser{Alpha: 1}.Flows(sums)
	if len(flows) != 1 || flows[0] >= 0 {
		t.Fatalf("flows = %v, want one right-to-left shift", flows)
	}
	after := applyFlows([]int{100, 100}, flows)
	tl := float64(after[0]) / 20
	tr := float64(after[1]) / 10
	if math.Abs(tl-tr) > 0.2 {
		t.Fatalf("completion times %.2f vs %.2f not equalized (flows %v)", tl, tr, flows)
	}
}

func TestFlowsUnderRelaxed(t *testing.T) {
	sums := []Summary{
		{Rate: 10, Backlog: 200},
		{Rate: 10, Backlog: 0},
	}
	full := Diffuser{Alpha: 1}.Flows(sums)[0]
	half := Diffuser{Alpha: 0.5}.Flows(sums)[0]
	if full != 100 {
		t.Fatalf("full correction moved %d, want 100", full)
	}
	if half != 50 {
		t.Fatalf("half correction moved %d, want 50", half)
	}
}

func TestFlowsClampToBacklog(t *testing.T) {
	// The middle group has 1 unit but both neighbors are idle and fast:
	// flows must not overdraw it.
	sums := []Summary{
		{Rate: 100, Backlog: 0},
		{Rate: 1, Backlog: 1},
		{Rate: 100, Backlog: 0},
	}
	flows := Diffuser{Alpha: 1}.Flows(sums)
	after := applyFlows([]int{0, 1, 0}, flows)
	for g, b := range after {
		if b < 0 {
			t.Fatalf("group %d driven to backlog %d (flows %v)", g, b, flows)
		}
	}
}

func TestFlowsDeadGroupDrains(t *testing.T) {
	// A group with no measured rate and positive backlog pushes work to
	// a live neighbor instead of wedging on an infinite completion time.
	sums := []Summary{
		{Rate: 0, Backlog: 40},
		{Rate: 10, Backlog: 10},
	}
	flows := Diffuser{Alpha: 0.5}.Flows(sums)
	if flows[0] != 20 {
		t.Fatalf("flows = %v, want [20]", flows)
	}
	// Both dead: even out backlogs.
	sums = []Summary{
		{Rate: 0, Backlog: 40},
		{Rate: 0, Backlog: 0},
	}
	if f := (Diffuser{Alpha: 1}).Flows(sums); f[0] != 20 {
		t.Fatalf("both-dead flows = %v, want [20]", f)
	}
}

func TestFlowsDeterministic(t *testing.T) {
	sums := []Summary{
		{Rate: 3.7, Backlog: 41},
		{Rate: 9.1, Backlog: 17},
		{Rate: 0.4, Backlog: 66},
		{Rate: 5.5, Backlog: 3},
	}
	d := Diffuser{Alpha: 0.5}
	first := d.Flows(sums)
	for i := 0; i < 100; i++ {
		if got := d.Flows(sums); !reflect.DeepEqual(got, first) {
			t.Fatalf("iteration %d diverged: %v vs %v", i, got, first)
		}
	}
}

func TestFlowsConverge(t *testing.T) {
	// Iterating exchange rounds on a static chain must converge toward
	// proportional backlogs (all completion times equal), the fixed point
	// of the diffusion.
	backlogs := []int{400, 0, 0, 0}
	rates := []float64{5, 10, 20, 5}
	d := Diffuser{Alpha: 0.5}
	for iter := 0; iter < 60; iter++ {
		sums := make([]Summary, len(backlogs))
		for g := range sums {
			sums[g] = Summary{Rate: rates[g], Backlog: backlogs[g]}
		}
		backlogs = applyFlows(backlogs, d.Flows(sums))
	}
	var worst, best float64 = 0, math.Inf(1)
	for g, b := range backlogs {
		ct := float64(b) / rates[g]
		if ct > worst {
			worst = ct
		}
		if ct < best {
			best = ct
		}
	}
	if worst-best > 1.5 {
		t.Fatalf("did not converge: backlogs %v (completion spread %.2f)", backlogs, worst-best)
	}
}

// TestFlowsSoak drives the diffuser over randomized chains — varied
// lengths, dead groups, skewed rates and backlogs — and checks the
// invariants every schedule must keep: work is conserved and no group
// is ever overdrawn, across repeated exchanges. The case budget shrinks
// under the race detector's slowdown.
func TestFlowsSoak(t *testing.T) {
	cases := 2000
	if raceDetector {
		cases = 200
	}
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < cases; c++ {
		groups := 2 + rng.Intn(31)
		alpha := 0.1 + 0.9*rng.Float64()
		rates := make([]float64, groups)
		backlogs := make([]int, groups)
		total := 0
		for g := range rates {
			if rng.Intn(8) > 0 { // ~1 in 8 groups measures no progress
				rates[g] = rng.Float64() * 100
			}
			backlogs[g] = rng.Intn(500)
			total += backlogs[g]
		}
		d := Diffuser{Alpha: alpha}
		for it := 0; it < 20; it++ {
			sums := make([]Summary, groups)
			for g := range sums {
				sums[g] = Summary{Rate: rates[g], Backlog: backlogs[g]}
			}
			flows := d.Flows(sums)
			backlogs = applyFlows(backlogs, flows) // panics on overdraw
		}
		sum := 0
		for g, b := range backlogs {
			if b < 0 {
				t.Fatalf("case %d: group %d driven negative: %v", c, g, backlogs)
			}
			sum += b
		}
		if sum != total {
			t.Fatalf("case %d: backlog not conserved: had %d, left %d", c, total, sum)
		}
	}
}
