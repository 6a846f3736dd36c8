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
// daemons (wire.RunSpec), and the compile cache hashes every field, so a new
// field needs a carrier in both.
type Options struct {
	// Dist is the data-distribution directive (the paper assumes Fortran
	// D-style directives from the programmer). If Dist.Dims is empty the
	// compiler derives a distribution automatically.
	Dist depend.DistSpec
	// HookCostFlops is the estimated cost of one hook visit, in
	// floating-point-operation equivalents.
	HookCostFlops float64
}

// hookFraction is the §4.2 rule: a hook visit may cost at most this share
// of the work it encloses.
const hookFraction = 0.01

func (o Options) withDefaults() Options {
	if o.HookCostFlops <= 0 {
		o.HookCostFlops = 200
	}
	return o
}

// ErrNoDistribution is Compile's error when it was given no directive and
// none of the directives it derived compiles; the wrapped text names the
// first derived directive and why it was refused.
var ErrNoDistribution = errors.New("compile: no derived distribution compiles; give one with -dist")

// Compile parallelizes a sequential program for SPMD execution with dynamic
// load balancing, under opts.Dist or, when it names no arrays, under the
// first derived directive that compiles (deriveDistributions).
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
	for i, spec := range deriveDistributions(analysis) {
		plan, refusal := compileUnder(analysis, spec)
		if refusal == nil {
			return plan, nil
		}
		if i == 0 {
			err = fmt.Errorf("%w (%s: %v)", ErrNoDistribution, distText(spec), refusal)
		}
	}
	return nil, err
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
	deps, err := analysis.DepsFor(spec)
	if err != nil {
		return nil, err
	}
	props, err := analysis.PropertiesFrom(spec, deps)
	if err != nil {
		return nil, err
	}

	c := &compiler{
		prog:     prog,
		analysis: analysis,
		spec:     spec,
		deps:     deps,
		hookID:   0,
	}
	unitsExpr, err := c.unitsExpr()
	if err != nil {
		return nil, err
	}
	steps, err := c.transform(prog.Body, 0)
	if err != nil {
		return nil, err
	}
	if _, _, _, leftover := extractPipes(steps); leftover {
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

	// Reduction accumulations look like loop-carried dependences to the
	// analysis but are resolved by the Combine steps, not by pipelining or
	// movement restrictions: classify carried dependences without them.
	if props.LoopCarriedDeps && len(c.reductions) > 0 {
		carried := false
		for _, d := range deps {
			if c.reductions[d.Array] {
				continue
			}
			for _, l := range spec.Loops {
				if d.Carrier == l {
					carried = true
				}
			}
		}
		props.LoopCarriedDeps = carried
	}

	plan := &Plan{
		Prog:        prog,
		Dist:        spec,
		Props:       props,
		Restricted:  props.LoopCarriedDeps || len(deltas) > 0,
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
// scan none (an array with no dimension d stays replicated). Read-only
// arrays align when every reference subscripts one dimension, the same in
// all, by exactly a distributed loop variable, and stay replicated
// otherwise.
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
			if d < n {
				dims[arr] = d
			}
			for k := 0; k < n; k++ {
				if slices.ContainsFunc(a.DistLoopsFor(arr, k), func(l string) bool { return slices.Contains(picked, l) }) {
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
	deps     []depend.Dep

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
func (c *compiler) transform(stmts []loopir.Stmt, depth int) ([]Step, error) {
	if c.ghostDeltas == nil {
		c.ghostDeltas = map[int]bool{}
		c.pendingExchanges = map[string][]GhostPart{}
		c.reductions = map[string]bool{}
	}
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
				comm, err := c.synthesizeComm(owned)
				if err != nil {
					return nil, err
				}
				out = append(out, comm.bcasts...)
				if len(comm.recv) > 0 {
					out = append(out, &pipeMarker{recv: comm.recv, send: comm.send})
				}
				out = append(out, owned)
			case c.enclosesDistLoop(s.Body):
				body, err := c.transform(s.Body, depth+1)
				if err != nil {
					return nil, err
				}
				// If the body carries a pipeline marker, this level is the
				// one to strip-mine (§4.4).
				if pre, post, rest, ok := extractPipes(body); ok {
					if s.BreakIf != nil {
						return nil, fmt.Errorf("compile: strip-mined loop %q cannot carry a break condition", s.Var)
					}
					// The strip-mined loop must scan the pipelined (non-
					// distributed) dimension of the piped arrays; otherwise
					// the program needs loop interchange first, which this
					// compiler does not perform.
					for _, st := range pre {
						pr := st.(*PipeRecv)
						dim, ok := c.varDimOfArray(s.Var, pr.Array)
						if !ok {
							return nil, fmt.Errorf(
								"compile: pipelined array %q is not indexed by enclosing loop %q (distributed loop encloses the pipelined dimension; loop interchange required)",
								pr.Array, s.Var)
						}
						pr.RowDim = dim
					}
					for _, st := range post {
						ps := st.(*PipeSend)
						if dim, ok := c.varDimOfArray(s.Var, ps.Array); ok {
							ps.RowDim = dim
						}
					}
					c.stripMined = true
					out = append(out, &StripLoop{Var: s.Var, Lo: s.Lo, Hi: s.Hi, Pre: pre, Body: rest, Post: post})
				} else {
					if s.BreakIf != nil {
						if err := c.checkBreakCond(s.BreakIf); err != nil {
							return nil, err
						}
					}
					out = append(out, &SeqLoop{Var: s.Var, Lo: s.Lo, Hi: s.Hi, Body: body, BreakIf: s.BreakIf})
				}
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

// pipeMarker carries pipeline comm requirements upward from an OwnedLoop to
// the sequential loop that will be strip-mined.
type pipeMarker struct {
	recv []Step // PipeRecv steps
	send []Step // PipeSend steps
}

func (*pipeMarker) isStep() {}

// extractPipes removes a pipeMarker from the step list, returning its
// pre/post steps and the filtered list.
func extractPipes(steps []Step) (pre, post, rest []Step, ok bool) {
	for _, s := range steps {
		if m, is := s.(*pipeMarker); is {
			pre, post, ok = m.recv, m.send, true
			continue
		}
		rest = append(rest, s)
	}
	if !ok {
		rest = steps
	}
	return pre, post, rest, ok
}

// commNeeds is what one distributed loop's reads require: owner broadcasts
// before the loop and pipelined transfers around its strip-mined block
// (ghost exchanges go to the compiler's pendingExchanges).
type commNeeds struct {
	owned      *OwnedLoop
	inner      map[string]bool // variables of the loops inside owned's body
	seen       map[string]bool // broadcast, pipe and exchange keys placed
	bcasts     []Step
	recv, send []Step // PipeRecv and PipeSend steps
}

// once reports whether key is new, and marks it seen.
func (n *commNeeds) once(key string) bool {
	if n.seen[key] {
		return false
	}
	n.seen[key] = true
	return true
}

// synthesizeComm inspects the reads and writes in a distributed loop body
// and derives the required communication from the dependence analysis
// (§3.2, §4.6). Writes must be local to the owner (owner-computes).
func (c *compiler) synthesizeComm(owned *OwnedLoop) (*commNeeds, error) {
	needs := &commNeeds{owned: owned, inner: map[string]bool{}, seen: map[string]bool{}}
	read := func(r loopir.Ref) error { return c.classifyRead(needs, r) }
	err := loopir.Walk(owned.Body, func(s loopir.Stmt, _ []*loopir.Loop) error {
		if l, ok := s.(*loopir.Loop); ok {
			needs.inner[l.Var] = true // before any read its body makes
		}
		if err := loopir.Reads(s, read); err != nil {
			return err
		}
		a, ok := s.(*loopir.Assign)
		if !ok {
			return nil
		}
		dim, distributed := c.spec.Dims[a.LHS.Array]
		if !distributed {
			return c.classifyReplicatedWrite(a)
		}
		if a.LHS.Idx[dim].String() != owned.Var {
			return fmt.Errorf("compile: write %s is not owner-computes for loop %q", a.LHS.String(), owned.Var)
		}
		return nil
	})
	return needs, err
}

// classifyRead decides how a read of a distributed array is satisfied:
// locally, by a pipelined neighbor transfer (new values), by a sweep-start
// ghost exchange (old values), or by an owner broadcast.
func (c *compiler) classifyRead(needs *commNeeds, r loopir.Ref) error {
	dim, distributed := c.spec.Dims[r.Array]
	if !distributed {
		return nil // replicated: always local
	}
	sub := r.Idx[dim]
	f, err := loopir.AffineOf(sub, nil)
	if err != nil {
		return fmt.Errorf("compile: non-affine distributed subscript %s", r.String())
	}
	v := needs.owned.Var
	delta, neighbour := f.Offset(v)
	switch {
	case neighbour:
		if delta == 0 {
			return nil // local
		}
		c.ghostDeltas[delta] = true
		if delta < -1 || delta > 1 {
			return fmt.Errorf("compile: ghost offset %d of %s unsupported (only ±1)", delta, r.String())
		}
		// Pipelined if a flow dependence carried by the distributed loop
		// targets this read (the neighbor's new values are needed);
		// otherwise a sweep-start exchange of old values.
		if c.hasPipeFlow(v, r) {
			if needs.once(fmt.Sprintf("pipe %s@%d", r.Array, delta)) {
				needs.recv = append(needs.recv, &PipeRecv{Array: r.Array, Delta: delta})
				needs.send = append(needs.send, &PipeSend{Array: r.Array, Delta: -delta})
			}
			return nil
		}
		if needs.once(fmt.Sprintf("exchange %s@%d", r.Array, delta)) {
			carrier := c.exchangeCarrier(r)
			c.pendingExchanges[carrier] = append(c.pendingExchanges[carrier], GhostPart{Array: r.Array, Delta: delta})
		}
		return nil
	case f.Coef(v) == 0:
		// The distributed subscript does not scan with the loop: the slice
		// at that index must be broadcast by its owner, before the loop, so
		// the index may not name a variable the loop's body binds.
		for _, t := range f.Terms {
			if needs.inner[t.Var] {
				return fmt.Errorf("compile: distributed loop %q reads %s with a loop-internal index; per-element communication not supported", v, r.String())
			}
		}
		if needs.once("bcast " + r.Array + "@" + sub.String()) {
			needs.bcasts = append(needs.bcasts, &Bcast{Array: r.Array, Index: sub})
		}
		return nil
	default:
		return fmt.Errorf("compile: unsupported distributed subscript %s in %s", sub.String(), r.String())
	}
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

// hasPipeFlow reports whether a flow dependence carried by the distributed
// loop targets the given read.
func (c *compiler) hasPipeFlow(distVar string, read loopir.Ref) bool {
	for _, d := range c.deps {
		if d.Kind == depend.Flow && d.Carrier == distVar && d.Dst.String() == read.String() {
			return true
		}
	}
	return false
}

// exchangeCarrier finds the outer loop whose iterations stale the ghost
// data (the carrier of the flow dependence feeding this read); the exchange
// is inserted at the start of that loop's body. "" means before the whole
// program (read-only ghost data).
func (c *compiler) exchangeCarrier(read loopir.Ref) string {
	for _, d := range c.deps {
		if d.Kind == depend.Flow && d.Dst.String() == read.String() && d.Carrier != "" && !c.isDistLoop(d.Carrier) {
			return d.Carrier
		}
	}
	return ""
}

// lowerNonDistributed handles statements outside any distributed loop:
// owner-computes blocks (all distributed writes at one index expression) or
// replicated execution, which may not read a distributed array. An owner
// block's distributed reads at a different index are satisfied by an owner
// broadcast before the block, and the written unit is re-broadcast
// afterwards so later readers anywhere see it — the paper's
// broadcast-and-discard rule for locating distributed data (§4.6). This is
// what makes, e.g., periodic boundary copies (b[0][*] = b[n-2][*]) work.
func (c *compiler) lowerNonDistributed(stmts []loopir.Stmt) ([]Step, error) {
	ownerKey := ""
	var ownerExpr loopir.IExpr
	replOnly := true
	writtenArrays := map[string]bool{}
	// Variables bound by loops inside the block: a remote read whose
	// distributed subscript depends on them would need per-element
	// communication, which is not supported.
	internal := map[string]bool{}
	err := loopir.Walk(stmts, func(s loopir.Stmt, _ []*loopir.Loop) error {
		if l, ok := s.(*loopir.Loop); ok {
			if c.isDistLoop(l.Var) {
				return fmt.Errorf("compile: distributed loop %q nested in unsupported context", l.Var)
			}
			internal[l.Var] = true
			return nil
		}
		a, ok := s.(*loopir.Assign)
		if !ok {
			return nil
		}
		dim, distributed := c.spec.Dims[a.LHS.Array]
		if !distributed {
			return nil
		}
		replOnly = false
		writtenArrays[a.LHS.Array] = true
		e := a.LHS.Idx[dim]
		if ownerExpr == nil {
			ownerExpr = e
			ownerKey = e.String()
		} else if ownerKey != e.String() {
			return fmt.Errorf("compile: statement group writes multiple owners (%s vs %s)", ownerKey, e.String())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Non-local distributed reads become whole-unit broadcasts before the
	// block.
	var pre []Step
	seen := map[string]bool{}
	read := func(r loopir.Ref) error {
		dim, distributed := c.spec.Dims[r.Array]
		if !distributed {
			return nil
		}
		if replOnly {
			// Every slave runs the group on its own copy, so it would read
			// units it may not own.
			return fmt.Errorf("compile: replicated statement reads distributed array %q (%s); distribute the array it writes", r.Array, r.String())
		}
		sub := r.Idx[dim]
		if sub.String() == ownerKey {
			return nil // owner-local
		}
		f, err := loopir.AffineOf(sub, nil)
		if err != nil {
			return fmt.Errorf("compile: non-affine distributed subscript %s", r.String())
		}
		for _, t := range f.Terms {
			if internal[t.Var] {
				return fmt.Errorf("compile: owner block (owner %s) reads %s with a block-internal index; per-element communication not supported", ownerKey, r.String())
			}
		}
		key := r.Array + "@" + sub.String()
		if !seen[key] {
			seen[key] = true
			pre = append(pre, &Bcast{Array: r.Array, Index: sub})
		}
		return nil
	}
	err = loopir.Walk(stmts, func(s loopir.Stmt, _ []*loopir.Loop) error {
		// Mixed owner-computes + replicated writes cannot work: only the
		// owner would update the replicated data, diverging the other
		// slaves.
		if a, ok := s.(*loopir.Assign); ok && !replOnly {
			if _, distributed := c.spec.Dims[a.LHS.Array]; !distributed {
				return fmt.Errorf("compile: owner block writes replicated array %q; split the statement group", a.LHS.Array)
			}
		}
		return loopir.Reads(s, read)
	})
	if err != nil {
		return nil, err
	}
	if replOnly {
		return []Step{&AllStmts{Body: stmts}}, nil
	}

	steps := append(pre, &OwnerBlock{Index: ownerExpr, Body: stmts})
	// Publish the written unit so readers on other slaves (distributed
	// loops or later owner blocks) observe the update.
	for _, a := range sortedKeys(writtenArrays) {
		steps = append(steps, &Bcast{Array: a, Index: ownerExpr})
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

// mergeOwnerBlocks fuses adjacent OwnerBlocks with the same owner index and
// drops nil placeholders left by extractPipes.
func mergeOwnerBlocks(steps []Step) []Step {
	var out []Step
	for _, s := range steps {
		if s == nil {
			continue
		}
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
			// The exchange belongs before the whole sweep, and the
			// strip-mined loop is the sweep: Pre would repeat it per block.
			// Carriers enclose the pipelined loop, so a plan that gets here
			// is a compiler bug worth naming.
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
	// Unit-stride deltas only: the runtime peels exactly one unit per run
	// edge into the boundary region.
	for _, ex := range group.Parts {
		if ex.Delta != 1 && ex.Delta != -1 {
			return false
		}
	}

	writes := map[string]bool{}
	readDeltas := map[string]map[int]bool{}
	replWrite := false
	read := func(r loopir.Ref) error {
		dim, distributed := c.spec.Dims[r.Array]
		if !distributed {
			return nil
		}
		f, err := loopir.AffineOf(r.Idx[dim], nil)
		if err != nil {
			return nil
		}
		if delta, ok := f.Offset(l.Var); ok {
			if readDeltas[r.Array] == nil {
				readDeltas[r.Array] = map[int]bool{}
			}
			readDeltas[r.Array][delta] = true
		}
		// Loop-invariant subscripts are broadcast-fed before the loop
		// and order-independent: they do not affect eligibility.
		return nil
	}
	loopir.Walk(l.Body, func(s loopir.Stmt, _ []*loopir.Loop) error {
		loopir.Reads(s, read)
		if a, ok := s.(*loopir.Assign); ok {
			if _, distributed := c.spec.Dims[a.LHS.Array]; distributed {
				writes[a.LHS.Array] = true
			} else {
				replWrite = true
			}
		}
		return nil
	})

	// Reduction (replicated) accumulations fold in ascending unit order;
	// running interior before boundary would change the floating-point
	// accumulation order across the split.
	if replWrite {
		return false
	}
	// In-place stencils — the loop writes an array it also reads at a
	// neighbor offset — depend on the ascending execution order for which
	// sweep's values an edge unit observes.
	for arr, deltas := range readDeltas {
		if !writes[arr] {
			continue
		}
		for d := range deltas {
			if d != 0 {
				return false
			}
		}
	}
	// Every part of the group must feed this loop; a ghost refreshed for a
	// later consumer must not be delayed past unrelated compute.
	for _, ex := range group.Parts {
		if !readDeltas[ex.Array][ex.Delta] {
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
