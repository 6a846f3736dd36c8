package dlb

import (
	"fmt"
	"maps"
	"math"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/loopir"
)

// computeOnly is an Endpoint whose Compute runs its body and charges
// nothing; a slave that calls anything else on it panics.
type computeOnly struct{ Endpoint }

func (computeOnly) Compute(_ time.Duration, fn func()) { fn() }

// roundSlave is slave 0 of 2 with the library program name lowered on
// tier as runOn lowers it, owning its block of the initial units.
func roundSlave(t *testing.T, name, tier string) *slave {
	t.Helper()
	plan, params := overlapPlans(t)[name], overlapParams[name]
	exec, err := plan.Instantiate(params, 1, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := loopir.NewInstance(plan.Prog, params)
	if err != nil {
		t.Fatal(err)
	}
	s := &slave{id: 0, slaves: 2, cfg: &Config{FlopCost: time.Microsecond}, exec: exec, inst: inst,
		ep: computeOnly{}, fault: noSlaveFault{}, costOn: loopir.UsesIArr(plan.Prog.Body)}
	if tier == KernelAOT {
		if s.aot, err = buildAOT(plan, params); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.lowerPlan(); err != nil {
		t.Fatal(err)
	}
	s.pass, s.costAcc = s.runPass, make([]float64, exec.Units)
	s.own = core.NewBlockOwnership(exec.Units, s.slaves)
	s.own.RetireOutside(exec.InitialLo, exec.InitialHi)
	return s
}

// eachLeaf replays the plan's control flow on the slave's frame and
// calls visit at every step that is not a loop, with the enclosing loops'
// iterations in their slots. Nothing else runs.
func eachLeaf(t *testing.T, s *slave, visit func(l *compile.Node)) {
	t.Helper()
	err := s.exec.Plan.Run(s.frame, 1, func(l *compile.Node, _, _ int) error {
		visit(l)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestRoundAllocatesNothing: once warm, with ownership unchanged, a
// distributed loop's execution allocates nothing: no runs slice, no
// Compute closure, no estimate walk, no register file. Each
// loop is measured at its first execution, in place in the loop nest.
func TestRoundAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates")
	}
	for _, c := range []struct{ name, tier string }{
		{"jacobi", KernelVM}, {"sor", KernelVM}, {"mm", KernelVM}, {"spmv", KernelVM}, {"jacobi", KernelAOT},
	} {
		s := roundSlave(t, c.name, c.tier)
		measured := map[int]bool{}
		eachLeaf(t, s, func(l *compile.Node) {
			st, ok := l.Step.(*compile.OwnedLoop)
			if !ok || measured[l.ID] {
				return
			}
			measured[l.ID] = true
			s.execOwned(l, st) // warm: the buffers grow to the loop's size
			if n := testing.AllocsPerRun(20, func() { s.execOwned(l, st) }); n != 0 {
				t.Errorf("%s on %s: distributed loop %q allocates %v times per execution", c.name, c.tier, st.Var, n)
			}
		})
		if len(measured) == 0 {
			t.Errorf("%s: no distributed loop ran", c.name)
		}
	}
}

// TestLoweredEstimateMatchesEstFlops: at every distributed-loop
// execution of every library program, the estimate the slave charges,
// lowered onto the frame once, is loopir.EstFlops over the same
// bindings bit for bit: the midpoint unit for a dense body, every unit
// in range for an indirect one (the instance-bound walk). An owner
// block's and a replicated group's charge is EstFlops of its body.
func TestLoweredEstimateMatchesEstFlops(t *testing.T) {
	for name := range overlapPlans(t) {
		s := roundSlave(t, name, KernelVM)
		execs := 0
		eachLeaf(t, s, func(l *compile.Node) {
			env := maps.Clone(s.inst.Params)
			for v, slot := range s.inst.Frame {
				env[v] = s.frame.Slots[slot]
			}
			same := func(what string, got, want float64) {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: %s: lowered estimate %v, EstFlops %v", name, what, got, want)
				}
			}
			switch st := l.Step.(type) {
			case *compile.OwnerBlock:
				same("owner block "+st.Index.String(), l.Cost(s.frame.Slots), loopir.EstFlops(st.Body, env))
			case *compile.AllStmts:
				same("replicated group", l.Cost(s.frame.Slots), loopir.EstFlops(st.Body, env))
			case *compile.OwnedLoop:
				execs++
				lo, hi := l.Range(s.frame.Slots, s.exec.Units)
				if x := &s.execs[l.ID]; x.cost != nil {
					for u := lo; u < hi; u++ {
						s.frame.Slots[l.Slot], env[st.Var] = u, u
						same(fmt.Sprintf("loop %s=%d", st.Var, u), x.cost(s.frame.Slots), s.inst.EstFlops(st.Body, env))
					}
					return
				}
				mid := lo + (hi-lo)/2
				env[st.Var] = mid
				same(fmt.Sprintf("loop %s=%d", st.Var, mid), l.PerUnit(s.frame.Slots, mid), loopir.EstFlops(st.Body, env))
			}
		})
		if execs == 0 {
			t.Errorf("%s: no distributed loop ran", name)
		}
	}
}
