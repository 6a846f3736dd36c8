// Package compile is the parallelizing compiler: it turns a sequential
// loopir program plus a data-distribution directive into an SPMD slave
// program with dynamic-load-balancing support — the code-generation side of
// the paper (Table 2):
//
//   - owner-computes distribution of the loops that scan the distributed
//     dimension, preserving the sequential loop structure (§4.1),
//   - boundary-exchange, pipelined, and broadcast communication synthesized
//     from the dependence analysis (§3.2, §4.6),
//   - strip mining of pipelined loops with a startup-measured grain (§4.4),
//   - load-balancing hook placement by the 1% cost rule (§4.2),
//   - application-specific work-movement payloads, including the ghost data
//     adjacent to moved slices (§4.5),
//   - master control metadata mirroring the slave loop structure, so the
//     master executes the same number of load-balancing phases and can
//     deactivate completed work (§4.1, §4.7),
//   - a printable pseudo-source rendering of the generated program.
//
// The output Plan is the executable artifact (closures and step descriptors
// standing in for the C code the paper's compiler emits); internal/dlb
// executes it on a cluster.
package compile

import (
	"fmt"

	"repro/internal/depend"
	"repro/internal/loopir"
)

// Step is one node of the generated SPMD slave program.
type Step interface {
	isStep()
}

// SeqLoop is a sequential loop executed by every slave (outer loops of the
// original nest). Bounds may reference parameters and enclosing loop
// variables. BreakIf carries a data-dependent termination condition (§4.1:
// the WHILE case); every slave evaluates it identically against combined
// reduction values, so all slaves (and hence the master's phase count)
// terminate consistently.
type SeqLoop struct {
	Var     string
	Lo, Hi  loopir.IExpr
	Body    []Step
	BreakIf *loopir.Cond
}

// StripLoop is a strip-mined pipelined loop (§4.4): the original sequential
// loop Var is executed in blocks of a grain size chosen at startup. Pre
// runs before each block (pipeline receives), Post after (pipeline sends);
// both see the block's [BlockLo, BlockHi) range of Var.
type StripLoop struct {
	Var    string
	Lo, Hi loopir.IExpr
	Pre    []Step // PipeRecv steps
	Body   []Step
	Post   []Step // PipeSend steps
}

// OwnedLoop is the distributed loop: each slave iterates the units it owns
// that are active and inside [Lo, Hi), ascending, executing Body (the
// original loop body) with Var bound to the unit index.
type OwnedLoop struct {
	Var    string
	Lo, Hi loopir.IExpr
	Body   []loopir.Stmt
}

// OwnerBlock is a statement subtree executed only by the owner of the
// distributed-dimension index Index (owner-computes for writes whose
// distributed subscript is not a distributed loop — LU's pivot-column
// normalization).
type OwnerBlock struct {
	Index loopir.IExpr
	Body  []loopir.Stmt
}

// AllStmts is a statement subtree executed identically by every slave
// (writes to replicated arrays only).
type AllStmts struct {
	Body []loopir.Stmt
}

// GhostPart is one transfer of an exchange group: every slave sends its
// boundary units of Array to the slaves that read them at offset Delta, so
// reads of unit u+Delta observe the previous sweep's values.
type GhostPart struct {
	Array string
	Delta int // read offset on the distributed dimension (non-zero)
}

// Exchange is a pre-sweep ghost-exchange group: all the boundary transfers
// one carrier loop needs at the start of each of its iterations (a stencil
// has one part per direction) — in a block distribution the classic
// neighbor ghost exchange, the paper's sweep-start send/receive in Figure
// 3a. The group is one step, as that figure draws it: the runtime posts
// every part's sends before it completes the first receive, so a slave
// waits one link latency per sweep, not one per direction in series. Parts
// on one array share a message tag, which is why the group is placed,
// marked and executed whole; the rendered source keeps a line per part.
//
// When Overlap is set the group is split-loop eligible: Carrier points at
// the distributed loop that consumes the ghosts, and the runtime may defer
// the receives past the carrier's interior units (whose stencil reads
// cannot touch a ghost) and finish with the ≤|Delta| boundary units at each
// edge of every contiguous owned run. Eligibility is decided at compile
// time (markOverlap) and rendered into the plan source, so it enters the
// plan hash; ineligible groups (no directly following consumer, reduction
// writes in the carrier, in-place stencils) keep Carrier nil and always
// complete their receives in place.
type Exchange struct {
	Parts   []GhostPart
	Carrier *OwnedLoop // consuming loop when split-eligible; nil otherwise
	Overlap bool       // true: the runtime may overlap this group
}

// PipeRecv receives, for the current strip block, the rows of the ghost
// unit at offset Delta from the slave's first owned unit — values computed
// earlier in the same sweep by the neighbor (pipelined flow dependence).
// RowDim is the array dimension scanned by the strip-mined loop (the rows
// being selected).
type PipeRecv struct {
	Array  string
	Delta  int // negative: ghost below the first owned unit
	RowDim int
}

// PipeSend sends, for the current strip block, the rows of the slave's
// boundary owned unit to the neighbor that will read them at offset Delta.
type PipeSend struct {
	Array  string
	Delta  int // positive: the right neighbor reads our last owned unit
	RowDim int
}

// Bcast broadcasts one unit (the distributed-dimension slice at Index) of
// the array from its owner to every other slave (LU's pivot column). The
// paper's broadcast-and-discard rule for locating distributed data (§4.6).
type Bcast struct {
	Array string
	Index loopir.IExpr
}

// Combine is an all-reduce of a replicated reduction array: every slave's
// accumulated contribution since the last Combine is summed in slave order
// (so floating point is identical everywhere) and the result replaces the
// array on all slaves.
type Combine struct {
	Array string
	Op    byte // '+' (sum) is the supported reduction operator
}

// Hook is a candidate load-balancing hook site (§4.2). Exactly one Level is
// chosen at instantiation by the 1% rule; hooks at other levels are inert.
type Hook struct {
	ID    int
	Level int // loop nesting depth of the hook site (0 = outermost loop)
}

func (*SeqLoop) isStep()    {}
func (*StripLoop) isStep()  {}
func (*OwnedLoop) isStep()  {}
func (*OwnerBlock) isStep() {}
func (*AllStmts) isStep()   {}
func (*Exchange) isStep()   {}
func (*PipeRecv) isStep()   {}
func (*PipeSend) isStep()   {}
func (*Bcast) isStep()      {}
func (*Combine) isStep()    {}
func (*Hook) isStep()       {}

// ReduceSpec records a recognized sum reduction into a replicated array
// (e.g. a convergence residual accumulated inside the distributed loop).
type ReduceSpec struct {
	Array string
	Op    byte
}

// Plan is the compiled SPMD program, independent of parameter values and
// slave count.
type Plan struct {
	Prog  *loopir.Program
	Dist  depend.DistSpec
	Props depend.Properties
	// Restricted: work movement must preserve the block distribution
	// because dependences cross distributed-loop indices.
	Restricted bool
	// UnitsExpr is the extent of the distributed dimension (number of work
	// units/data slices), in terms of parameters.
	UnitsExpr loopir.IExpr
	// Steps is the generated slave program.
	Steps []Step
	// DistArrays maps each distributed array to its distributed dimension.
	DistArrays map[string]int
	// Replicated lists arrays kept whole on every slave.
	Replicated []string
	// GhostDeltas are the non-zero distributed-dimension read offsets; work
	// movement must ship the adjacent ghost units alongside moved slices.
	GhostDeltas []int
	// StripMined reports whether a pipelined loop was strip mined.
	StripMined bool
	// HookCount is the number of candidate hook sites.
	HookCount int
	// Reductions lists the recognized replicated-array reductions.
	Reductions []ReduceSpec
	// Source is the pseudo-source listing of the generated program.
	Source string
}

// PhaseMeta describes one hook instance for the master's control program:
// which units are active going into that phase, mirroring the slave loop
// structure (§4.1, §4.7).
type PhaseMeta struct {
	// ActiveLo and ActiveHi bound the active units ([lo, hi)) at this hook.
	ActiveLo, ActiveHi int
	// UnitsBetween is the total distributed-loop iterations executed by all
	// slaves together since the previous hook instance.
	UnitsBetween int
}

// Exec is a plan instantiated with concrete parameters: hook level chosen,
// phase schedule computed, cost estimates fixed.
type Exec struct {
	Plan   *Plan
	Params map[string]int
	// Units is the concrete number of work units.
	Units int
	// InitialLo and InitialHi bound the units that ever have work, the
	// range active at the start of execution (units outside it are
	// data-only, e.g. stencil boundary columns).
	InitialLo, InitialHi int
	// ActiveLevel is the hook nesting level selected by the 1% rule.
	ActiveLevel int
	// Phases is the master's phase schedule: one entry per active-hook
	// instance, in execution order.
	Phases []PhaseMeta
	// FlopsPerUnit estimates the cost of one distributed-loop iteration
	// (midpoint estimate over outer indices).
	FlopsPerUnit float64
	// TotalFlops estimates the whole computation.
	TotalFlops float64
}

func (e *Exec) String() string {
	return fmt.Sprintf("exec %s: %d units, hook level %d, %d phases",
		e.Plan.Prog.Name, e.Units, e.ActiveLevel, len(e.Phases))
}

// WalkSteps visits every step in pre-order: a SeqLoop before its Body, a
// StripLoop before its Pre, Body and Post. rest holds the steps that follow
// s in its own list. A loop's children are read after visit returns, so a
// visitor may rewrite them. An error from visit ends the walk and is
// returned.
func WalkSteps(steps []Step, visit func(s Step, rest []Step) error) error {
	for i, s := range steps {
		if err := visit(s, steps[i+1:]); err != nil {
			return err
		}
		var kids [][]Step
		switch s := s.(type) {
		case *SeqLoop:
			kids = [][]Step{s.Body}
		case *StripLoop:
			kids = [][]Step{s.Pre, s.Body, s.Post}
		}
		for _, k := range kids {
			if err := WalkSteps(k, visit); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run is the one interpreter of the plan's control flow: the slave's step
// loop and the master's phase schedule (Instantiate) both run on it, so the
// master mimics the slave loop structure by construction (§4.1). Each
// loop's bounds are evaluated once against env, and its variable is bound
// in env while the loop runs and deleted after. After each SeqLoop
// iteration with a BreakIf, brk decides whether the condition holds; a nil
// brk runs every loop to its bound. A StripLoop runs Pre, Body and Post per
// block of max(grain, 1) iterations. Every other step goes to leaf with its
// innermost strip block [lo, hi) ([0, 0) outside any strip). An error from
// a bound, leaf or brk ends the run and is returned.
func (p *Plan) Run(env map[string]int, grain int, leaf func(s Step, lo, hi int) error, brk func(c *loopir.Cond) (bool, error)) error {
	grain = max(grain, 1)
	var run func(steps []Step, blo, bhi int) error
	run = func(steps []Step, blo, bhi int) error {
		for _, s := range steps {
			switch s := s.(type) {
			case *SeqLoop:
				lo, hi, err := evalBounds(s.Lo, s.Hi, env)
				if err != nil {
					return err
				}
				for v := lo; v < hi; v++ {
					env[s.Var] = v
					if err := run(s.Body, blo, bhi); err != nil {
						return err
					}
					if s.BreakIf == nil || brk == nil {
						continue
					}
					stop, err := brk(s.BreakIf)
					if err != nil {
						return err
					}
					if stop {
						break
					}
				}
				delete(env, s.Var)
			case *StripLoop:
				lo, hi, err := evalBounds(s.Lo, s.Hi, env)
				if err != nil {
					return err
				}
				for start := lo; start < hi; start += grain {
					end := min(start+grain, hi)
					if err := run(s.Pre, start, end); err != nil {
						return err
					}
					for v := start; v < end; v++ {
						env[s.Var] = v
						if err := run(s.Body, start, end); err != nil {
							return err
						}
					}
					delete(env, s.Var)
					if err := run(s.Post, start, end); err != nil {
						return err
					}
				}
			default:
				if err := leaf(s, blo, bhi); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return run(p.Steps, 0, 0)
}

// Range evaluates the distributed loop's bounds against env, clamped to
// the units that exist, [0, units).
func (l *OwnedLoop) Range(env map[string]int, units int) (lo, hi int, err error) {
	lo, hi, err = evalBounds(l.Lo, l.Hi, env)
	return max(lo, 0), min(hi, units), err
}

func evalBounds(lo, hi loopir.IExpr, env map[string]int) (int, int, error) {
	l, err := loopir.EvalIndex(lo, env)
	if err != nil {
		return 0, 0, err
	}
	h, err := loopir.EvalIndex(hi, env)
	return l, h, err
}

// KernelRegions collects the plan's distributed loops in program order —
// the kernel-eligible regions. Each OwnedLoop is a candidate for both the
// VM range kernel and an AOT-compiled native kernel; the index of a loop
// in this slice is its stable kernel index across tiers.
func KernelRegions(p *Plan) []*OwnedLoop {
	var out []*OwnedLoop
	WalkSteps(p.Steps, func(s Step, _ []Step) error {
		if l, ok := s.(*OwnedLoop); ok {
			out = append(out, l)
		}
		return nil
	})
	return out
}
