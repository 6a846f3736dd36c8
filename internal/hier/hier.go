// Package hier is the two-level load-balancing topology: slaves are
// partitioned into contiguous groups, each led by its lowest-id member,
// and whole block ranges shift across group boundaries by a first-order
// diffusive scheme (after Demirel & Sbalzarini, "Balancing indivisible
// real-valued loads in arbitrary networks").
//
// The paper's single master collects every slave's status and re-plans
// every round, so coordination is O(slaves) on the critical path. The
// hierarchy splits that work: the existing balancer runs *within* each
// group every period, while groups exchange only aggregate rate/backlog
// summaries on a slower cadence. Because our loop-carried dependences
// already force adjacent-only, block-preserving movement, contiguous
// groups map directly onto the diffusive scheme's neighbor topology: the
// group chain is a path graph, and an inter-group shift is an ordinary
// adjacent move across the boundary between the last slave of one group
// and the first slave of the next.
package hier

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Typed validation errors. Callers classify with errors.Is; every
// constructor error wraps exactly one of these sentinels.
var (
	// ErrNoGroups rejects a group count below one.
	ErrNoGroups = errors.New("hier: need at least one group")
	// ErrTooManyGroups rejects more groups than slaves (some group would
	// be empty).
	ErrTooManyGroups = errors.New("hier: more groups than slaves")
)

// Partition is a contiguous split of slaves 0..n-1 into groups. Group g
// owns the id range [Start(g), End(g)); its leader is Start(g), the
// lowest member id. The zero value is not usable; build one with Split.
type Partition struct {
	starts []int // group -> first member id; one extra entry = slave count
}

// Split partitions n slaves into the given number of contiguous groups,
// as evenly as possible (the same largest-first rounding as the initial
// BLOCK data distribution: group g starts at g*n/groups).
func Split(slaves, groups int) (*Partition, error) {
	if groups < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrNoGroups, groups)
	}
	if slaves < 1 {
		return nil, fmt.Errorf("%w: %d slaves", ErrTooManyGroups, slaves)
	}
	if groups > slaves {
		return nil, fmt.Errorf("%w: %d groups over %d slaves", ErrTooManyGroups, groups, slaves)
	}
	p := &Partition{starts: make([]int, groups+1)}
	for g := 0; g <= groups; g++ {
		p.starts[g] = g * slaves / groups
	}
	return p, nil
}

// Groups returns the number of groups.
func (p *Partition) Groups() int { return len(p.starts) - 1 }

// Slaves returns the number of partitioned slave ids.
func (p *Partition) Slaves() int { return p.starts[len(p.starts)-1] }

// Start returns the first member id of group g.
func (p *Partition) Start(g int) int { return p.starts[g] }

// End returns one past the last member id of group g.
func (p *Partition) End(g int) int { return p.starts[g+1] }

// Size returns the member count of group g.
func (p *Partition) Size(g int) int { return p.starts[g+1] - p.starts[g] }

// Leader returns group g's leader: its lowest member id.
func (p *Partition) Leader(g int) int { return p.starts[g] }

// Leaders returns every group's leader id, ascending.
func (p *Partition) Leaders() []int {
	out := make([]int, p.Groups())
	for g := range out {
		out[g] = p.starts[g]
	}
	return out
}

// Members returns group g's member ids, ascending.
func (p *Partition) Members(g int) []int {
	out := make([]int, 0, p.Size(g))
	for i := p.starts[g]; i < p.starts[g+1]; i++ {
		out = append(out, i)
	}
	return out
}

// GroupOf returns the group owning the slave id. Ids past the configured
// range (joiner slots admitted after the partition was built) fold into
// the last group, so an elastic membership never escapes the topology.
func (p *Partition) GroupOf(slave int) int {
	if slave < 0 {
		panic(fmt.Sprintf("hier: negative slave id %d", slave))
	}
	if slave >= p.Slaves() {
		return p.Groups() - 1
	}
	// starts is ascending; find the last start <= slave.
	g := sort.SearchInts(p.starts, slave+1) - 1
	return g
}

// IsLeader reports whether the slave id leads its group.
func (p *Partition) IsLeader(slave int) bool {
	g := p.GroupOf(slave)
	return p.starts[g] == slave
}

// String renders the partition as its group ranges.
func (p *Partition) String() string {
	s := ""
	for g := 0; g < p.Groups(); g++ {
		if g > 0 {
			s += " "
		}
		s += fmt.Sprintf("[%d,%d)", p.Start(g), p.End(g))
	}
	return s
}

// Summary is one group's aggregate state, exchanged between adjacent
// leaders on the slow cadence: the sum of its members' filtered
// computation rates and the active work units currently inside the
// group's block range.
type Summary struct {
	Rate    float64 // aggregate units/second of the group's members
	Backlog int     // active units assigned to the group
	// Weight is the group's backlog in learned cost-model units (the sum
	// of its active units' relative weights). Zero on uniform-cost runs;
	// FlowsWeighted uses it in place of the unit count so an expensive
	// block range counts as the work it actually is.
	Weight float64
}

// Diffuser computes first-order diffusive flows along the group chain.
// For each boundary between adjacent groups L and R the balanced
// exchange is
//
//	x* = (tL − tR) · RL·RR/(RL+RR)
//
// where t = Backlog/Rate is the group's projected completion time —
// the flow that equalizes the two completion times in one step. Alpha
// under-relaxes it (0 < Alpha ≤ 1): full correction every exchange
// overshoots when rates drift between cadences, so the scheme moves a
// fraction and converges geometrically, exactly like a diffusion
// iteration on a path graph.
type Diffuser struct {
	Alpha float64
}

// pairFlow is the unclamped balanced exchange across one boundary between
// a left group of rate lr and backlog lb and a right group of rate rr and
// backlog rb; positive shifts work left-to-right. Backlogs are unit counts
// (Flows) or learned weights with rates in weight units per second
// (FlowsWeighted).
func pairFlow(lr, rr, lb, rb float64) float64 {
	switch {
	case lr > 0 && rr > 0:
		return (lb/lr - rb/rr) * (lr * rr / (lr + rr))
	case lr <= 0 && rr > 0:
		// The left group measures no progress: its completion time is
		// unbounded, so push its whole backlog toward the live side (the
		// clamp and Alpha keep the actual shift gradual).
		return lb
	case rr <= 0 && lr > 0:
		return -rb
	default:
		// Neither side measures progress: split the difference evenly.
		return (lb - rb) / 2
	}
}

// Flows returns the per-boundary integer shifts for the group chain:
// flows[b] units cross the boundary between groups b and b+1, positive
// meaning left-to-right. Flows are computed left to right against
// provisional backlogs, so no group is ever driven negative even when
// both neighbors drain it in the same exchange. The computation is a
// pure function of the summaries — every observer derives identical
// shifts.
func (d Diffuser) Flows(sums []Summary) []int {
	alpha := d.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	if len(sums) < 2 {
		return nil
	}
	prov := make([]int, len(sums))
	for i, s := range sums {
		prov[i] = s.Backlog
	}
	flows := make([]int, len(sums)-1)
	for b := 0; b < len(flows); b++ {
		l, r := sums[b], sums[b+1]
		f := int(math.Round(alpha * pairFlow(l.Rate, r.Rate, float64(l.Backlog), float64(r.Backlog))))
		if f > prov[b] {
			f = prov[b]
		}
		if -f > prov[b+1] {
			f = -prov[b+1]
		}
		flows[b] = f
		prov[b] -= f
		prov[b+1] += f
	}
	return flows
}

// FlowsWeighted is Flows under a learned cost model: summaries carry
// weighted backlogs (Summary.Weight, rates in weight units per second) and
// the returned per-boundary flows are real-valued amounts of weight,
// positive meaning left-to-right. The caller converts weight into whole
// boundary units against its unit weight vector; clamping to provisional
// weighted backlogs keeps no group overdrawn, mirroring Flows.
func (d Diffuser) FlowsWeighted(sums []Summary) []float64 {
	alpha := d.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	if len(sums) < 2 {
		return nil
	}
	prov := make([]float64, len(sums))
	for i, s := range sums {
		prov[i] = s.Weight
	}
	flows := make([]float64, len(sums)-1)
	for b := 0; b < len(flows); b++ {
		l, r := sums[b], sums[b+1]
		f := alpha * pairFlow(l.Rate, r.Rate, l.Weight, r.Weight)
		if f > prov[b] {
			f = prov[b]
		}
		if -f > prov[b+1] {
			f = -prov[b+1]
		}
		flows[b] = f
		prov[b] -= f
		prov[b+1] += f
	}
	return flows
}
