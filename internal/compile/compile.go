package compile

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/depend"
	"repro/internal/loopir"
)

// Options configures compilation. A transport ships every field to its
// daemons (wire.RunSpec), and the compile cache hashes each of them, so a
// new one needs a carrier in both.
type Options struct {
	// Dist is the data-distribution directive (the paper assumes Fortran
	// D-style directives from the programmer). If Dist.Dims is empty the
	// compiler derives a distribution automatically.
	Dist depend.DistSpec
}

// hookFraction is the §4.2 rule: a hook visit may cost at most this share
// of the work it encloses.
const hookFraction = 0.01

// ErrNoDistribution is Compile's error when it was given no directive and
// none of the directives it derived compiles; the wrapped text names the
// first derived directive and why it was refused.
var ErrNoDistribution = errors.New("compile: no derived distribution compiles; give one with -dist")

// Compile parallelizes a sequential program for SPMD execution with dynamic
// load balancing, under opts.Dist or, when it names no arrays, under a
// derived directive (deriveDistributions): the first that compiles and
// leaves no ghost exchange exposed (every group may overlap its consumer's
// interior compute), else the first that compiles.
func Compile(prog *loopir.Program, opts Options) (*Plan, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	analysis, err := depend.Analyze(prog)
	if err != nil {
		return nil, err
	}
	if len(opts.Dist.Dims) > 0 {
		return compileUnder(analysis, opts.Dist)
	}
	err = fmt.Errorf("%w (no loop scans a dimension of a written array)", ErrNoDistribution)
	var first *Plan
	for i, spec := range deriveDistributions(analysis) {
		plan, refusal := compileUnder(analysis, spec)
		if refusal == nil && !exposesExchange(plan) {
			return plan, nil
		} else if refusal == nil && first == nil {
			first = plan
		} else if i == 0 {
			err = fmt.Errorf("%w (%s: %v)", ErrNoDistribution, distText(spec), refusal)
		}
	}
	if first != nil {
		return first, nil
	}
	return nil, err
}

// exposesExchange reports whether markOverlap left some exchange group of p
// to complete its receives in place.
func exposesExchange(p *Plan) (exposed bool) {
	WalkSteps(p.Steps, func(s Step, _ []Step) error {
		ex, ok := s.(*Exchange)
		exposed = exposed || ok && !ex.Overlap
		return nil
	})
	return exposed
}

// compileUnder compiles the analysed program under one directive.
func compileUnder(analysis *depend.Analysis, spec depend.DistSpec) (*Plan, error) {
	prog := analysis.Prog
	if len(spec.Loops) == 0 {
		// Derive the distributed loops from the directive.
		spec.Loops = distLoops(analysis, spec.Dims)
		if len(spec.Loops) == 0 {
			return nil, fmt.Errorf("compile: no loop scans the distributed dimension")
		}
	}
	props, err := analysis.LoopShape(spec.Primary())
	if err != nil {
		return nil, err
	}

	c := &compiler{
		prog:             prog,
		analysis:         analysis,
		spec:             spec,
		outer:            map[string]int{},
		loops:            map[*OwnedLoop]*scope{},
		ghostDeltas:      map[int]bool{},
		pendingExchanges: map[string][]GhostPart{},
		reductions:       map[string]bool{},
	}
	for _, p := range prog.Params {
		c.outer[p] = 0
	}
	unitsExpr, err := c.unitsExpr()
	if err != nil {
		return nil, err
	}
	steps, err := c.transform(prog.Body)
	if err != nil {
		return nil, err
	}
	if recv, _ := c.pipes(steps); len(recv) > 0 {
		return nil, fmt.Errorf("compile: pipelined distributed loop has no enclosing sequential loop to strip-mine")
	}
	if err := c.placeExchanges(steps); err != nil {
		return nil, err
	}
	steps = c.placeCombines(steps)
	c.placeHooks(steps, 0)
	if c.hookID == 0 {
		return nil, fmt.Errorf("compile: %s has no loop enclosing the distributed loop to host a hook", prog.Name)
	}
	c.markOverlap(steps)

	var replicated []string
	for _, a := range prog.Arrays {
		if _, ok := spec.Dims[a.Name]; !ok {
			replicated = append(replicated, a.Name)
		}
	}

	deltas := make([]int, 0, len(c.ghostDeltas))
	for d := range c.ghostDeltas {
		deltas = append(deltas, d)
	}
	sort.Ints(deltas)

	// Table 1's communication properties read the plan: a dependence
	// carried by a distributed loop is an in-place offset read (writes are
	// owner-computes, and a loop may not write its broadcast slice), and
	// communication outside it is an exchange or a broadcast.
	for _, sc := range c.loops {
		props.LoopCarriedDeps = props.LoopCarriedDeps || sc.inPlace()
	}
	WalkSteps(steps, func(s Step, _ []Step) error {
		switch s.(type) {
		case *Exchange, *Bcast:
			props.CommOutsideLoop = true
		}
		return nil
	})

	plan := &Plan{
		Prog:        prog,
		Dist:        spec,
		Props:       props,
		Restricted:  len(deltas) > 0,
		UnitsExpr:   unitsExpr,
		Steps:       steps,
		DistArrays:  spec.Dims,
		Replicated:  replicated,
		GhostDeltas: deltas,
		StripMined:  c.stripMined,
		HookCount:   c.hookID,
	}
	for _, arr := range sortedKeys(c.reductions) {
		plan.Reductions = append(plan.Reductions, ReduceSpec{Array: arr, Op: '+'})
	}
	plan.Source = RenderPlan(plan)
	return plan, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// placeCombines inserts reduction Combine steps: at the end of every loop
// body that has a break condition (so the condition sees globally combined
// values) and at the end of the program (so the final value is right).
func (c *compiler) placeCombines(steps []Step) []Step {
	if len(c.reductions) == 0 {
		return steps
	}
	combines := func() []Step {
		var out []Step
		for _, arr := range sortedKeys(c.reductions) {
			out = append(out, &Combine{Array: arr, Op: '+'})
		}
		return out
	}
	WalkSteps(steps, func(s Step, _ []Step) error {
		if l, ok := s.(*SeqLoop); ok && l.BreakIf != nil {
			l.Body = append(l.Body, combines()...)
		}
		return nil
	})
	return append(steps, combines()...)
}

// deriveDistributions proposes one directive per dimension d, last first.
// The first written array that a loop scans along d picks the loops; every
// other written array takes the dimension those loops scan, or d if they
// scan none but some loop scans it along a dimension (an array with no
// dimension d, or that no loop scans, stays replicated). Read-only arrays
// align when every reference subscripts one dimension, the same in all, by
// exactly a distributed loop variable, and stay replicated otherwise.
func deriveDistributions(a *depend.Analysis) []depend.DistSpec {
	written := a.WrittenArrays()
	rank := 0
	for _, arr := range written {
		rank = max(rank, len(a.Prog.Array(arr).Dims))
	}
	var out []depend.DistSpec
	for d := rank - 1; d >= 0; d-- {
		var picked []string
		dims := map[string]int{}
		for _, arr := range written {
			if picked = a.DistLoopsFor(arr, d); len(picked) > 0 {
				dims[arr] = d
				break
			}
		}
		if len(picked) == 0 {
			continue
		}
		for _, arr := range written {
			if _, done := dims[arr]; done {
				continue
			}
			n := len(a.Prog.Array(arr).Dims)
			for k := 0; k < n; k++ {
				loops := a.DistLoopsFor(arr, k)
				if len(loops) > 0 && d < n {
					dims[arr] = d
				}
				if slices.ContainsFunc(loops, func(l string) bool { return slices.Contains(picked, l) }) {
					dims[arr] = k
					break
				}
			}
		}
		loops := distLoops(a, dims)
		for _, decl := range a.Prog.Arrays {
			if _, done := dims[decl.Name]; done {
				continue
			}
			if dim, ok := alignedDim(a, decl.Name, loops); ok {
				dims[decl.Name] = dim
			}
		}
		out = append(out, depend.DistSpec{Dims: dims, Loops: loops})
	}
	return out
}

// alignedDim returns the dimension every reference to a read-only array
// subscripts by exactly one of the distributed loops, if there is one.
func alignedDim(a *depend.Analysis, array string, loops []string) (int, bool) {
	align := -1
	for _, r := range a.Refs {
		if r.Ref.Array != array {
			continue
		}
		found := -1
		for dim, ie := range r.Ref.Idx {
			f, err := loopir.AffineOf(ie, nil)
			if err == nil && len(f.Terms) == 1 && slices.Contains(loops, f.Terms[0].Var) {
				if delta, ok := f.Offset(f.Terms[0].Var); ok && delta == 0 {
					found = dim
				}
			}
		}
		if found == -1 || (align != -1 && align != found) {
			return 0, false
		}
		align = found
	}
	return align, align != -1
}

// distLoops returns, in program order, the loops that scan the distributed
// dimension of some distributed array.
func distLoops(a *depend.Analysis, dims map[string]int) []string {
	loopSet := map[string]bool{}
	for arr, dim := range dims {
		for _, l := range a.DistLoopsFor(arr, dim) {
			loopSet[l] = true
		}
	}
	return orderLoops(a.Prog.Body, loopSet)
}

// distText is a directive in -dist's array:dim form.
func distText(spec depend.DistSpec) string {
	parts := make([]string, 0, len(spec.Dims))
	for _, arr := range sortedKeys(spec.Dims) {
		parts = append(parts, fmt.Sprintf("%s:%d", arr, spec.Dims[arr]))
	}
	return strings.Join(parts, ",")
}

// orderLoops returns the loop variables in loopSet in program order.
func orderLoops(stmts []loopir.Stmt, loopSet map[string]bool) []string {
	var out []string
	loopir.Walk(stmts, func(s loopir.Stmt, _ []*loopir.Loop) error {
		if l, ok := s.(*loopir.Loop); ok && loopSet[l.Var] {
			out = append(out, l.Var)
		}
		return nil
	})
	return out
}

type compiler struct {
	prog     *loopir.Program
	analysis *depend.Analysis
	spec     depend.DistSpec

	// outer binds the parameters and the variables of the loops enclosing
	// the statements transform is lowering: all an index the runtime
	// evaluates before a group runs (an owner block's, a broadcast's) may
	// name.
	outer map[string]int
	// loops holds each distributed loop's scope, which the passes that
	// judge the loop later read instead of its body.
	loops       map[*OwnedLoop]*scope
	ghostDeltas map[int]bool
	// pendingExchanges maps carrier loop -> the parts of the exchange group
	// to insert at the start of that loop's body ("" = before everything).
	pendingExchanges map[string][]GhostPart
	// reductions are replicated arrays accumulated inside distributed
	// loops (r[..] = r[..] + expr); their partial sums are merged by
	// Combine steps.
	reductions map[string]bool
	stripMined bool
	hookID     int
}

func (c *compiler) isDistLoop(v string) bool {
	for _, l := range c.spec.Loops {
		if l == v {
			return true
		}
	}
	return false
}

// unitsExpr returns the extent of the distributed dimension, checking all
// distributed arrays agree.
func (c *compiler) unitsExpr() (loopir.IExpr, error) {
	var expr loopir.IExpr
	names := make([]string, 0, len(c.spec.Dims))
	for arr := range c.spec.Dims {
		names = append(names, arr)
	}
	sort.Strings(names)
	for _, arr := range names {
		dim := c.spec.Dims[arr]
		decl := c.prog.Array(arr)
		if decl == nil {
			return nil, fmt.Errorf("compile: distributed array %q not declared", arr)
		}
		if dim < 0 || dim >= len(decl.Dims) {
			return nil, fmt.Errorf("compile: array %q has no dimension %d", arr, dim)
		}
		e := decl.Dims[dim]
		if expr == nil {
			expr = e
		} else if expr.String() != e.String() {
			return nil, fmt.Errorf("compile: distributed extents disagree: %s vs %s", expr.String(), e.String())
		}
	}
	if expr == nil {
		return nil, fmt.Errorf("compile: no distributed arrays")
	}
	return expr, nil
}

// transform builds the SPMD step tree mirroring the sequential loop
// structure (§4.1).
func (c *compiler) transform(stmts []loopir.Stmt) ([]Step, error) {
	var out []Step
	for _, s := range stmts {
		switch s := s.(type) {
		case *loopir.Loop:
			switch {
			case c.isDistLoop(s.Var):
				if s.BreakIf != nil {
					return nil, fmt.Errorf("compile: distributed loop %q cannot carry a break condition", s.Var)
				}
				owned := &OwnedLoop{Var: s.Var, Lo: s.Lo, Hi: s.Hi, Body: s.Body}
				sc, err := c.synthesizeComm(owned)
				if err != nil {
					return nil, err
				}
				out = append(out, sc.bcasts...)
				out = append(out, owned)
			case c.enclosesDistLoop(s.Body):
				c.outer[s.Var] = 0
				body, err := c.transform(s.Body)
				delete(c.outer, s.Var)
				if err != nil {
					return nil, err
				}
				// If a distributed loop of the body is pipelined, this level
				// is the one to strip-mine (§4.4).
				pre, post := c.pipes(body)
				if len(pre) == 0 {
					if s.BreakIf != nil {
						if err := c.checkBreakCond(s.BreakIf); err != nil {
							return nil, err
						}
					}
					out = append(out, &SeqLoop{Var: s.Var, Lo: s.Lo, Hi: s.Hi, Body: body, BreakIf: s.BreakIf})
					continue
				}
				if s.BreakIf != nil {
					return nil, fmt.Errorf("compile: strip-mined loop %q cannot carry a break condition", s.Var)
				}
				// The strip-mined loop must scan the pipelined (non-
				// distributed) dimension of the piped arrays; otherwise the
				// program needs loop interchange first, which this compiler
				// does not perform.
				for _, st := range pre {
					pr := st.(*PipeRecv)
					dim, ok := c.varDimOfArray(s.Var, pr.Array)
					if !ok {
						return nil, fmt.Errorf(
							"compile: pipelined array %q is not indexed by enclosing loop %q (distributed loop encloses the pipelined dimension; loop interchange required)",
							pr.Array, s.Var)
					}
					pr.RowDim = dim
					if err := c.checkPipeRows(body, s.Var, pr); err != nil {
						return nil, err
					}
				}
				for _, st := range post {
					ps := st.(*PipeSend)
					if dim, ok := c.varDimOfArray(s.Var, ps.Array); ok {
						ps.RowDim = dim
					}
				}
				// An owner broadcast inside the pipeline waits for a slave
				// that is itself waiting for its predecessor's block: every
				// slave would stall.
				if err := WalkSteps(body, func(st Step, _ []Step) error {
					if b, ok := st.(*Bcast); ok {
						return fmt.Errorf("compile: pipelined loop %q broadcasts %s[%s] from its owner inside the pipeline", s.Var, b.Array, b.Index)
					}
					return nil
				}); err != nil {
					return nil, err
				}
				c.stripMined = true
				out = append(out, &StripLoop{Var: s.Var, Lo: s.Lo, Hi: s.Hi, Pre: pre, Body: body, Post: post})
			default:
				// No distributed loop inside: owner-computes block or
				// replicated execution of the whole subtree.
				steps, err := c.lowerNonDistributed([]loopir.Stmt{s})
				if err != nil {
					return nil, err
				}
				out = append(out, steps...)
			}
		case *loopir.Assign, *loopir.If:
			steps, err := c.lowerNonDistributed([]loopir.Stmt{s})
			if err != nil {
				return nil, err
			}
			out = append(out, steps...)
		default:
			return nil, fmt.Errorf("compile: unknown statement %T", s)
		}
	}
	return dedupeBcasts(mergeOwnerBlocks(out)), nil
}

// checkBreakCond verifies a break condition reads only replicated arrays:
// every slave then evaluates it identically (reduction arrays are made
// consistent by the Combine steps inserted before the check).
func (c *compiler) checkBreakCond(cond *loopir.Cond) error {
	// A break condition reads what an If on the same condition reads.
	return loopir.Reads(&loopir.If{Cond: *cond}, func(r loopir.Ref) error {
		if _, distributed := c.spec.Dims[r.Array]; distributed {
			return fmt.Errorf("compile: break condition reads distributed array %q; only replicated data is allowed", r.Array)
		}
		return nil
	})
}

// enclosesDistLoop reports whether a distributed loop is nested in stmts.
func (c *compiler) enclosesDistLoop(stmts []loopir.Stmt) bool {
	found := false
	loopir.Walk(stmts, func(s loopir.Stmt, _ []*loopir.Loop) error {
		if l, ok := s.(*loopir.Loop); ok && c.isDistLoop(l.Var) {
			found = true
		}
		return nil
	})
	return found
}

// scope is one statement group — a distributed loop's iterations, an owner
// block, or a replicated group every slave runs — and what serving its
// distributed reads takes: the owner broadcasts before the group (ghost
// exchanges go to the compiler's pendingExchanges). A distributed loop's
// scope also records its accesses to distributed arrays, which the
// strip-mined loop's pipeline, the broadcast-slice check, checkPipeRows and
// overlapEligible read later.
type scope struct {
	owned  *OwnedLoop      // the distributed loop; nil for the other groups
	owner  loopir.IExpr    // an owner block's index; nil for the other groups
	seen   map[string]bool // broadcast keys placed
	bcasts []Step
	ghosts []ghostNeed // the loop's exchanged reads, by array and offset

	reads     []offsetRead // reads whose distributed subscript is owned.Var + an offset
	writes    []loopir.Ref // writes of distributed arrays
	reduction bool         // the loop accumulates a sum into a replicated array
}

// offsetRead is a read whose distributed subscript is the distributed loop
// variable plus delta.
type offsetRead struct {
	ref   loopir.Ref
	delta int
	piped bool // a flow carried by the distributed loop feeds it: the pipeline serves it
}

// ghostNeed is what feeds a distributed loop's exchanged reads of one array
// at one offset: the sources of each.
type ghostNeed struct {
	part    GhostPart
	sources []depend.Source
}

// ghost files an exchanged read of part and its sources.
func (sc *scope) ghost(part GhostPart, sources []depend.Source) {
	i := slices.IndexFunc(sc.ghosts, func(g ghostNeed) bool { return g.part == part })
	if i < 0 {
		i = len(sc.ghosts)
		sc.ghosts = append(sc.ghosts, ghostNeed{part: part})
	}
	sc.ghosts[i].sources = append(sc.ghosts[i].sources, sources...)
}

// readsAt reports whether the loop reads array at offset delta.
func (sc *scope) readsAt(array string, delta int) bool {
	return slices.ContainsFunc(sc.reads, func(r offsetRead) bool { return r.ref.Array == array && r.delta == delta })
}

// writesTo reports whether the loop writes array.
func (sc *scope) writesTo(array string) bool {
	return slices.ContainsFunc(sc.writes, func(w loopir.Ref) bool { return w.Array == array })
}

// inPlace reports whether the loop reads, at a neighbour offset, an array
// it writes. (Loop-invariant subscripts are broadcast-fed before the loop
// and order-independent: they are not offset reads.)
func (sc *scope) inPlace() bool {
	return slices.ContainsFunc(sc.reads, func(r offsetRead) bool { return r.delta != 0 && sc.writesTo(r.ref.Array) })
}

// once reports whether key is new, and marks it seen.
func (sc *scope) once(key string) bool {
	if sc.seen[key] {
		return false
	}
	sc.seen[key] = true
	return true
}

// synthesizeComm inspects the reads and writes in a distributed loop body
// and derives the required communication from the dependence analysis
// (§3.2, §4.6). Writes must be local to the owner (owner-computes).
func (c *compiler) synthesizeComm(owned *OwnedLoop) (*scope, error) {
	sc := &scope{owned: owned, seen: map[string]bool{}}
	c.loops[owned] = sc
	err := loopir.Walk(owned.Body, func(s loopir.Stmt, _ []*loopir.Loop) error {
		if err := loopir.Reads(s, func(r loopir.Ref) error { return c.read(sc, s, r) }); err != nil {
			return err
		}
		a, ok := s.(*loopir.Assign)
		if !ok {
			return nil
		}
		dim, distributed := c.spec.Dims[a.LHS.Array]
		if !distributed {
			sc.reduction = true
			return c.classifyReplicatedWrite(a)
		}
		if a.LHS.Idx[dim].String() != owned.Var {
			return fmt.Errorf("compile: write %s is not owner-computes for loop %q", a.LHS.String(), owned.Var)
		}
		sc.writes = append(sc.writes, a.LHS)
		return nil
	})
	// One exchange per array and offset, at the innermost carrier of every
	// read it serves: two reads may be staled by different loops.
	for _, g := range sc.ghosts {
		carrier, writer := c.exchangeCarrier(g.sources)
		if writer != "" && err == nil {
			err = fmt.Errorf("compile: distributed loop %q reads ghosts of %s that distributed loop %q writes in the same iteration; an exchange between the two loops is not supported yet", owned.Var, g.part.Array, writer)
		}
		c.pendingExchanges[carrier] = append(c.pendingExchanges[carrier], g.part)
	}
	// A broadcast slice is the one before the loop: no iteration may write
	// it, so its index must lie provably outside [Lo, Hi).
	for _, st := range sc.bcasts {
		b := st.(*Bcast)
		below, err1 := loopir.AffineOf(loopir.Isub(b.Index, owned.Lo), nil)
		above, err2 := loopir.AffineOf(loopir.Isub(b.Index, owned.Hi), nil)
		if err == nil && sc.writesTo(b.Array) &&
			!(err1 == nil && len(below.Terms) == 0 && below.Const < 0) &&
			!(err2 == nil && len(above.Terms) == 0 && above.Const >= 0) {
			err = fmt.Errorf("compile: distributed loop %q writes %s's broadcast slice %s", owned.Var, b.Array, b.Index)
		}
	}
	return sc, err
}

// read decides how read r, by statement s, of a distributed array in sc's
// group is served: locally (the loop's own unit, or the owner block's), by
// a pipelined neighbour transfer (new values), by a sweep-start ghost
// exchange (old values), or by an owner broadcast before the group (§4.6).
// A replicated group may read no distributed array: every slave runs it on
// its own copy, most of which it does not own.
func (c *compiler) read(sc *scope, s loopir.Stmt, r loopir.Ref) error {
	dim, distributed := c.spec.Dims[r.Array]
	if !distributed {
		return nil // replicated: always local
	}
	if sc.owned == nil && sc.owner == nil {
		return fmt.Errorf("compile: replicated statement reads distributed array %q (%s); distribute the array it writes", r.Array, r.String())
	}
	sub := r.Idx[dim]
	if sc.owner != nil && sub.String() == sc.owner.String() {
		return nil // owner-local
	}
	f, err := loopir.AffineOf(sub, nil)
	if err != nil {
		return fmt.Errorf("compile: non-affine distributed subscript %s", r.String())
	}
	if sc.owned != nil {
		v := sc.owned.Var
		if delta, neighbour := f.Offset(v); neighbour {
			// Local at offset 0. Otherwise pipelined if a flow dependence
			// carried by the distributed loop targets the read (the
			// neighbour's new values are needed), else a sweep-start
			// exchange of old values.
			read := offsetRead{ref: r, delta: delta}
			if delta != 0 {
				c.ghostDeltas[delta] = true
				if delta < -1 || delta > 1 {
					return fmt.Errorf("compile: ghost offset %d of %s unsupported (only ±1)", delta, r.String())
				}
				sources := c.analysis.Sources(s, r)
				read.piped = slices.ContainsFunc(sources, func(src depend.Source) bool { return src.Carrier == v })
				if !read.piped {
					sc.ghost(GhostPart{Array: r.Array, Delta: delta}, sources)
				}
			}
			sc.reads = append(sc.reads, read)
			return nil
		}
		if f.Coef(v) != 0 {
			return fmt.Errorf("compile: unsupported distributed subscript %s in %s", sub.String(), r.String())
		}
	}
	// The slice at sub does not scan with a distributed loop: its owner
	// broadcasts it before the group, where the index must evaluate.
	if !c.evaluable(sub) {
		if sc.owned != nil {
			return fmt.Errorf("compile: distributed loop %q reads %s with a loop-internal index; per-element communication not supported", sc.owned.Var, r.String())
		}
		return fmt.Errorf("compile: owner block (owner %s) reads %s with a block-internal index; per-element communication not supported", sc.owner, r.String())
	}
	if sc.once("bcast " + r.Array + "@" + sub.String()) {
		sc.bcasts = append(sc.bcasts, &Bcast{Array: r.Array, Index: sub})
	}
	return nil
}

// evaluable reports whether index e evaluates from the parameters and the
// enclosing loops' variables alone, as it must where the runtime evaluates
// it: before the group runs.
func (c *compiler) evaluable(e loopir.IExpr) bool {
	_, err := loopir.EvalIndex(e, c.outer)
	return err == nil
}

// pipes collects the pipelined reads of the distributed loops among steps,
// each (array, offset) once: the receives before each strip block and the
// sends after it (§4.4). A loop nested deeper is its own nearest loop's to
// strip-mine.
func (c *compiler) pipes(steps []Step) (recv, send []Step) {
	seen := map[GhostPart]bool{}
	for _, st := range steps {
		owned, ok := st.(*OwnedLoop)
		if !ok {
			continue
		}
		for _, r := range c.loops[owned].reads {
			key := GhostPart{Array: r.ref.Array, Delta: r.delta}
			if r.piped && !seen[key] {
				seen[key] = true
				recv = append(recv, &PipeRecv{Array: key.Array, Delta: key.Delta})
				send = append(send, &PipeSend{Array: key.Array, Delta: -key.Delta})
			}
		}
	}
	return recv, send
}

// checkPipeRows refuses an access to a pipelined array that the pipeline
// would serve out of sequential order. A received block holds each of its
// rows as it stands after the block, so an iteration may write only its own
// row, and a pipelined read must name that row or one before it.
func (c *compiler) checkPipeRows(steps []Step, strip string, pr *PipeRecv) error {
	// rowOffset is d when subscript e is the strip-mined variable plus d.
	rowOffset := func(e loopir.IExpr) (int, bool) {
		f, err := loopir.AffineOf(e, nil)
		d, ok := f.Offset(strip)
		return d, err == nil && ok
	}
	return WalkSteps(steps, func(st Step, _ []Step) error {
		owned, ok := st.(*OwnedLoop)
		if !ok {
			return nil
		}
		for _, w := range c.loops[owned].writes {
			if w.Array != pr.Array {
				continue
			}
			if d, ok := rowOffset(w.Idx[pr.RowDim]); !ok || d != 0 {
				return fmt.Errorf("compile: pipelined loop %q writes %s out of the pipeline's row order", strip, w.String())
			}
		}
		for _, r := range c.loops[owned].reads {
			if r.ref.Array != pr.Array || r.delta != pr.Delta {
				continue
			}
			if d, ok := rowOffset(r.ref.Idx[pr.RowDim]); !ok || d > 0 {
				return fmt.Errorf("compile: pipelined loop %q reads %s out of the pipeline's row order", strip, r.ref.String())
			}
		}
		return nil
	})
}

// varDimOfArray returns the non-distributed dimension of the array whose
// subscripts use loop variable v, if any.
func (c *compiler) varDimOfArray(v, array string) (int, bool) {
	distDim := c.spec.Dims[array]
	for _, r := range c.analysis.Refs {
		if r.Ref.Array != array {
			continue
		}
		for dim, ie := range r.Ref.Idx {
			if f, err := loopir.AffineOf(ie, nil); dim != distDim && err == nil && f.Coef(v) != 0 {
				return dim, true
			}
		}
	}
	return 0, false
}

// classifyReplicatedWrite handles a write to a non-distributed array inside
// a distributed loop. The only supported form is a sum reduction
// (r[c] = r[c] + expr with constant subscripts), whose per-slave partials a
// Combine step later merges; anything else would silently diverge between
// slaves.
func (c *compiler) classifyReplicatedWrite(s *loopir.Assign) error {
	isSelf := func(e loopir.Expr) bool {
		r, ok := e.(loopir.Ref)
		return ok && r.String() == s.LHS.String()
	}
	b, ok := s.RHS.(loopir.Bin)
	if !ok || b.Op != '+' || (!isSelf(b.L) && !isSelf(b.R)) {
		return fmt.Errorf("compile: write %s to replicated array inside a distributed loop is not a recognized sum reduction (need %s = %s + expr)",
			s.LHS.String(), s.LHS.String(), s.LHS.String())
	}
	for _, ie := range s.LHS.Idx {
		f, err := loopir.AffineOf(ie, nil)
		if err != nil || slices.ContainsFunc(f.Terms, func(t loopir.Term) bool { return !c.prog.IsParam(t.Var) }) {
			return fmt.Errorf("compile: reduction target %s must use loop-invariant subscripts", s.LHS.String())
		}
	}
	c.reductions[s.LHS.Array] = true
	return nil
}

// exchangeCarrier finds the loop whose iterations stale the ghost data: of
// the carriers of the flows feeding the reads, the innermost that is not a
// distributed loop, since an exchange at the start of its body also follows
// every outer carrier's writes. The exchange is inserted there; "" means
// before the whole program, for read-only ghost data. A loop-independent
// flow from an owner block needs none (the block publishes what it
// writes); from a distributed loop, writer names that loop, and only an
// exchange between the two loops would serve it.
func (c *compiler) exchangeCarrier(sources []depend.Source) (carrier, writer string) {
	depth := -1
	for _, src := range sources {
		dist := slices.IndexFunc(src.Write.Loops, func(l *loopir.Loop) bool { return c.isDistLoop(l.Var) })
		d := slices.IndexFunc(src.Write.Loops, func(l *loopir.Loop) bool { return l.Var == src.Carrier })
		switch {
		case src.Carrier == "" && dist >= 0:
			return "", src.Write.Loops[dist].Var
		case src.Carrier != "" && !c.isDistLoop(src.Carrier) && d > depth:
			carrier, depth = src.Carrier, d
		}
	}
	return carrier, ""
}

// lowerNonDistributed handles statements outside any distributed loop:
// owner-computes blocks (all distributed writes at one index expression) or
// replicated execution. read serves the group's distributed reads, and the
// written unit is re-broadcast afterwards so later readers anywhere see it
// — the paper's broadcast-and-discard rule for locating distributed data
// (§4.6). This is what makes, e.g., periodic boundary copies (b[0][*] =
// b[n-2][*]) work.
func (c *compiler) lowerNonDistributed(stmts []loopir.Stmt) ([]Step, error) {
	sc := &scope{seen: map[string]bool{}}
	var first loopir.Ref // the block's first distributed write
	writtenArrays := map[string]bool{}
	err := loopir.Walk(stmts, func(s loopir.Stmt, _ []*loopir.Loop) error {
		if l, ok := s.(*loopir.Loop); ok && c.isDistLoop(l.Var) {
			return fmt.Errorf("compile: distributed loop %q nested in unsupported context", l.Var)
		}
		a, ok := s.(*loopir.Assign)
		if !ok {
			return nil
		}
		dim, distributed := c.spec.Dims[a.LHS.Array]
		if !distributed {
			return nil
		}
		writtenArrays[a.LHS.Array] = true
		if e := a.LHS.Idx[dim]; sc.owner == nil {
			sc.owner, first = e, a.LHS
		} else if sc.owner.String() != e.String() {
			return fmt.Errorf("compile: statement group writes multiple owners (%s vs %s)", sc.owner, e)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if sc.owner != nil {
		// Every slave evaluates the owner index before the block runs.
		if _, err := loopir.AffineOf(sc.owner, nil); err != nil {
			return nil, fmt.Errorf("compile: non-affine distributed subscript %s", first.String())
		} else if !c.evaluable(sc.owner) {
			return nil, fmt.Errorf("compile: owner block writes %s at a block-internal index; per-element communication not supported", first.String())
		}
	}
	err = loopir.Walk(stmts, func(s loopir.Stmt, _ []*loopir.Loop) error {
		// Mixed owner-computes + replicated writes cannot work: only the
		// owner would update the replicated data, diverging the other
		// slaves.
		if a, ok := s.(*loopir.Assign); ok && sc.owner != nil {
			if _, distributed := c.spec.Dims[a.LHS.Array]; !distributed {
				return fmt.Errorf("compile: owner block writes replicated array %q; split the statement group", a.LHS.Array)
			}
		}
		return loopir.Reads(s, func(r loopir.Ref) error { return c.read(sc, s, r) })
	})
	if err != nil {
		return nil, err
	}
	if sc.owner == nil {
		return []Step{&AllStmts{Body: stmts}}, nil
	}
	steps := append(sc.bcasts, &OwnerBlock{Index: sc.owner, Body: stmts})
	// Publish the written unit so readers on other slaves (distributed
	// loops or later owner blocks) observe the update.
	for _, a := range sortedKeys(writtenArrays) {
		steps = append(steps, &Bcast{Array: a, Index: sc.owner})
	}
	return steps, nil
}

// dedupeBcasts removes a Bcast that immediately repeats an identical one
// (e.g. an owner block's publish followed by a read-driven broadcast of the
// same unit).
func dedupeBcasts(steps []Step) []Step {
	var out []Step
	for _, s := range steps {
		if b, ok := s.(*Bcast); ok && len(out) > 0 {
			if prev, ok2 := out[len(out)-1].(*Bcast); ok2 &&
				prev.Array == b.Array && prev.Index.String() == b.Index.String() {
				continue
			}
		}
		out = append(out, s)
	}
	return out
}

// mergeOwnerBlocks fuses adjacent OwnerBlocks with the same owner index.
func mergeOwnerBlocks(steps []Step) []Step {
	var out []Step
	for _, s := range steps {
		if ob, ok := s.(*OwnerBlock); ok && len(out) > 0 {
			if prev, ok2 := out[len(out)-1].(*OwnerBlock); ok2 && prev.Index.String() == ob.Index.String() {
				prev.Body = append(prev.Body, ob.Body...)
				continue
			}
		}
		out = append(out, s)
	}
	return out
}

// placeExchanges inserts each pending exchange group at the start of its
// carrier loop's body.
func (c *compiler) placeExchanges(steps []Step) error {
	err := WalkSteps(steps, func(s Step, _ []Step) error {
		if l, ok := s.(*StripLoop); ok && len(c.pendingExchanges[l.Var]) > 0 {
			// A flow carried by the strip-mined loop feeds a ghost read: an
			// earlier row of this sweep wrote it on the neighbour, and only
			// a per-element transfer could deliver that (a sweep-start
			// exchange would repeat per block and still be stale).
			return fmt.Errorf("compile: ghost exchange carried by strip-mined loop %q cannot be placed", l.Var)
		}
		if l, ok := s.(*SeqLoop); ok && len(c.pendingExchanges[l.Var]) > 0 {
			l.Body = append([]Step{&Exchange{Parts: c.pendingExchanges[l.Var]}}, l.Body...)
			delete(c.pendingExchanges, l.Var)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Every exchange is loop-carried; a leftover carrier means the loop was
	// not found ("": the read has no enclosing sequential loop at all).
	for carrier := range c.pendingExchanges {
		if carrier == "" {
			return fmt.Errorf("compile: one-time pre-distribution exchange not supported yet")
		}
		return fmt.Errorf("compile: exchange carrier loop %q not found in generated code", carrier)
	}
	return nil
}

// markOverlap decides, per exchange group, whether the runtime may overlap
// it with its consumer's interior compute: post the sends, run the units
// whose stencil reads cannot touch a ghost, receive, then run the ≤|delta|
// boundary units at each run edge. The consumer is the next OwnedLoop,
// looking through replicated-only statements (which touch no distributed
// state and involve no communication); any other intervening step kills
// eligibility. The decision is recorded in the rendered plan source, so it
// participates in the cross-process plan hash.
func (c *compiler) markOverlap(steps []Step) {
	WalkSteps(steps, func(s Step, rest []Step) error {
		ex, ok := s.(*Exchange)
		if !ok {
			return nil
		}
		var consumer *OwnedLoop
		for _, next := range rest {
			if _, ok := next.(*AllStmts); ok {
				continue
			}
			consumer, _ = next.(*OwnedLoop)
			break
		}
		if consumer != nil && c.overlapEligible(ex, consumer) {
			ex.Carrier = consumer
			ex.Overlap = true
		}
		return nil
	})
}

// overlapEligible checks the split-loop safety conditions for one exchange
// group against its consuming loop.
func (c *compiler) overlapEligible(group *Exchange, l *OwnedLoop) bool {
	loop := c.loops[l]
	// Reduction (replicated) accumulations fold in ascending unit order;
	// running interior before boundary would change the floating-point
	// accumulation order across the split.
	if loop.reduction {
		return false
	}
	// In-place stencils depend on the ascending execution order for which
	// sweep's values an edge unit observes.
	if loop.inPlace() {
		return false
	}
	// Unit-stride deltas only: the runtime peels exactly one unit per run
	// edge into the boundary region. Every part of the group must feed this
	// loop; a ghost refreshed for a later consumer must not be delayed past
	// unrelated compute.
	for _, ex := range group.Parts {
		if ex.Delta != 1 && ex.Delta != -1 || !loop.readsAt(ex.Array, ex.Delta) {
			return false
		}
	}
	return true
}

// placeHooks appends a candidate Hook at the end of every sequential loop
// body that contains distributed work, recording its nesting level. For a
// strip-mined loop the hook fires after each block's pipeline sends (the
// paper's lbhook1a position).
func (c *compiler) placeHooks(steps []Step, depth int) bool {
	contains := false
	for _, s := range steps {
		switch s := s.(type) {
		case *SeqLoop:
			if c.placeHooks(s.Body, depth+1) {
				s.Body = append(s.Body, &Hook{ID: c.hookID, Level: depth})
				c.hookID++
				contains = true
			}
		case *StripLoop:
			inner := c.placeHooks(s.Body, depth+1)
			if inner {
				s.Post = append(s.Post, &Hook{ID: c.hookID, Level: depth})
				c.hookID++
				contains = true
			}
		case *OwnedLoop, *OwnerBlock:
			contains = true
		}
	}
	return contains
}
