package depend

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/loopir"
)

// The tracer is the tests' concrete dependence oracle. It runs small
// instances of the program on loopir's interpreter, logs every data access
// it reports with the iteration vector of the executing statement, pairs
// accesses to the same element into dependence instances, and generalizes
// the observed distance vectors. Running two sample sizes and merging
// guards against size-specific coincidences. For affine programs of the
// kind the paper targets this recovers exact constant distances, and
// non-uniform references are covered the same way; a dependence that first
// occurs past the samples it does not see, which is why the compiler
// decides from the program text (Sources) and the tracer only checks
// it. Its names are exported for the depend_test package (the analysis
// goldens and the static-against-trace table).

const ownerNone = int(^uint(0) >> 1) // sentinel: access has no owner index

type access struct {
	ref   int // index of the reference in Analysis.Refs
	write bool
	owner int            // distributed-dimension index of the executing statement, or ownerNone
	iter  map[string]int // loop variable values of the execution; shared, read-only
}

// tracer observes one sample on loopir's interpreter and logs every data
// access under the reference the analysis numbered for it.
type tracer struct {
	a      *Analysis
	in     *loopir.Instance
	owners map[loopir.Stmt]loopir.IExpr // each statement's owner subscript; one without is attributed to no owner
	log    map[string][][]access        // array -> flat index -> accesses in time order

	// The statement execution in progress.
	stmt  loopir.Stmt
	ord   int
	refs  stmtRefs
	owner int
	iter  map[string]int
}

type refKey struct {
	stmtID int
	refIdx int
}

// observe is the interpreter's Observer. It logs the access under the
// reference collectRefs numbered for it, and refuses one it did not number.
func (tr *tracer) observe(s loopir.Stmt, ord int, array string, flat int, env map[string]int) error {
	// An execution of s starts at its first read, or at its write if it
	// reads nothing.
	begins := ord == 0 || ord < 0 && (s != tr.stmt || tr.ord < 0)
	tr.stmt, tr.ord = s, ord
	if begins {
		refs, ok := tr.a.stmts[s]
		if !ok {
			return fmt.Errorf("depend: observed a %T the analysis did not number", s)
		}
		tr.refs = refs
	}
	i := tr.refs.first + ord
	if ord < 0 {
		i = tr.refs.first + tr.refs.reads
	}
	if i >= len(tr.a.Refs) || tr.a.Refs[i].StmtID != tr.refs.id || tr.a.Refs[i].RefIdx != ord || tr.a.Refs[i].Ref.Array != array {
		return fmt.Errorf("depend: access %d of statement %d (%s) is not one of its references", ord, tr.refs.id, array)
	}
	if begins {
		tr.owner = ownerNone
		if oe, ok := tr.owners[s]; ok {
			if v, err := tr.in.EvalIndex(oe, env); err == nil {
				tr.owner = v
			}
		}
		// Executions share one snapshot of the loop variables while the
		// loops stand still.
		if loops := tr.a.Refs[i].Loops; !sameIter(tr.iter, loops, env) {
			tr.iter = make(map[string]int, len(loops))
			for _, l := range loops {
				tr.iter[l.Var] = env[l.Var]
			}
		}
	}
	byFlat := tr.log[array]
	if byFlat == nil {
		byFlat = make([][]access, len(tr.in.Arrays[array].Data))
		tr.log[array] = byFlat
	}
	byFlat[flat] = append(byFlat[flat], access{ref: i, write: ord < 0, owner: tr.owner, iter: tr.iter})
	return nil
}

// sameIter reports whether iter holds exactly the loops' current values.
func sameIter(iter map[string]int, loops []*loopir.Loop, env map[string]int) bool {
	if len(iter) != len(loops) {
		return false
	}
	for i := len(loops) - 1; i >= 0; i-- { // innermost first: it changes most
		if v, ok := iter[loops[i].Var]; !ok || v != env[loops[i].Var] {
			return false
		}
	}
	return true
}

// depKey identifies an aggregated dependence: a reference pair, a kind, and
// a carrying loop.
type depKey struct {
	array   string
	kind    Kind
	carrier string
	src     refKey
	dst     refKey
}

type depAgg struct {
	perLoop    map[string]Constraint
	srcRef     loopir.Ref
	dstRef     loopir.Ref
	common     []string
	crossOwner bool
}

// DepsFor is depsAt the default samples.
func (a *Analysis) DepsFor(spec DistSpec) ([]Dep, error) {
	return a.depsAt(defaultSamples(a.Prog), spec)
}

// depsAt runs the tracer on each sample with owner attribution for the
// given distribution and merges the aggregated dependences: every access is
// attributed to the distributed-dimension owner of its executing statement,
// and a dependence connecting different owners is flagged CrossOwner. An
// empty DistSpec attributes no owner, so it gives the unattributed view.
// A sample run that faults (an index out of range) fails it, whatever the
// directive.
func (a *Analysis) depsAt(samples []map[string]int, spec DistSpec) ([]Dep, error) {
	owners := ownerExprs(a.Prog.Body, spec)
	agg := map[depKey]*depAgg{}
	for _, params := range samples {
		if err := a.traceSample(params, owners, agg); err != nil {
			return nil, err
		}
	}
	keys := make([]depKey, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b depKey) int {
		return cmp.Or(strings.Compare(a.array, b.array),
			cmp.Compare(a.src.stmtID, b.src.stmtID), cmp.Compare(a.src.refIdx, b.src.refIdx),
			cmp.Compare(a.dst.stmtID, b.dst.stmtID), cmp.Compare(a.dst.refIdx, b.dst.refIdx),
			cmp.Compare(a.kind, b.kind), strings.Compare(a.carrier, b.carrier))
	})
	var deps []Dep
	for _, k := range keys {
		g := agg[k]
		d := Dep{
			Array:       k.array,
			Kind:        k.kind,
			Carrier:     k.carrier,
			PerLoop:     g.perLoop,
			CommonLoops: g.common,
			Src:         g.srcRef,
			Dst:         g.dstRef,
			SrcStmt:     k.src.stmtID,
			DstStmt:     k.dst.stmtID,
			CrossOwner:  g.crossOwner,
		}
		if k.carrier != "" {
			d.Distance = g.perLoop[k.carrier]
		}
		deps = append(deps, d)
	}
	return deps, nil
}

// ownerExprs maps each statement to the expression giving the distributed-
// dimension index of its write (the owner-computes rule). If statements, and
// assignments to replicated arrays, fall back to the innermost in-scope
// distributed loop variable, so they are attributed to the iterations that
// execute them.
func ownerExprs(stmts []loopir.Stmt, spec DistSpec) map[loopir.Stmt]loopir.IExpr {
	out := map[loopir.Stmt]loopir.IExpr{}
	loopir.Walk(stmts, func(s loopir.Stmt, loops []*loopir.Loop) error {
		if _, ok := s.(*loopir.Loop); ok {
			return nil
		}
		if as, ok := s.(*loopir.Assign); ok {
			if dim, ok := spec.Dims[as.LHS.Array]; ok && dim < len(as.LHS.Idx) {
				out[s] = as.LHS.Idx[dim]
				return nil
			}
		}
		for i := len(loops) - 1; i >= 0; i-- {
			if slices.Contains(spec.Loops, loops[i].Var) {
				out[s] = loopir.Iv(loops[i].Var)
				return nil
			}
		}
		return nil
	})
	return out
}

func (a *Analysis) traceSample(params map[string]int, owners map[loopir.Stmt]loopir.IExpr, agg map[depKey]*depAgg) error {
	in, err := loopir.NewInstance(a.Prog, params)
	if err != nil {
		return err
	}
	tr := &tracer{a: a, in: in, owners: owners, log: map[string][][]access{}}
	if err := in.InterpretObserved(tr.observe); err != nil {
		return err
	}

	// The loops two references share, computed once per pair: every
	// depAgg and Dep holding one only reads it.
	commons := make([][]string, len(a.Refs)*len(a.Refs))
	known := make([]bool, len(commons))
	addInstance := func(src, dst access, kind Kind) {
		sc, dc := &a.Refs[src.ref], &a.Refs[dst.ref]
		pair := src.ref*len(a.Refs) + dst.ref
		if !known[pair] {
			commons[pair], known[pair] = commonLoops(sc.Loops, dc.Loops), true
		}
		common := commons[pair]
		carrier := ""
		for _, l := range common {
			if dst.iter[l] != src.iter[l] {
				carrier = l
				break
			}
		}
		key := depKey{array: sc.Ref.Array, kind: kind, carrier: carrier, src: refKey{sc.StmtID, sc.RefIdx}, dst: refKey{dc.StmtID, dc.RefIdx}}
		g := agg[key]
		if g == nil {
			g = &depAgg{perLoop: map[string]Constraint{}, srcRef: sc.Ref, dstRef: dc.Ref, common: common}
			agg[key] = g
		}
		for _, l := range common {
			delta := dst.iter[l] - src.iter[l]
			if c, seen := g.perLoop[l]; !seen {
				g.perLoop[l] = Constraint{D: delta}
			} else if !c.Any && c.D != delta {
				g.perLoop[l] = Constraint{Any: true}
			}
		}
		if src.owner != ownerNone && dst.owner != ownerNone && src.owner != dst.owner {
			g.crossOwner = true
		}
	}

	for _, byFlat := range tr.log {
		for _, accs := range byFlat {
			// accs is already time-ordered.
			for i, src := range accs {
				if src.write {
					// flow: src -> reads until the next write (inclusive
					// scan stops at the next write, which forms the output
					// dependence instead).
					for j := i + 1; j < len(accs); j++ {
						if accs[j].write {
							addInstance(src, accs[j], Output)
							break
						}
						addInstance(src, accs[j], Flow)
					}
				} else {
					// anti: src read -> next write.
					for j := i + 1; j < len(accs); j++ {
						if accs[j].write {
							addInstance(src, accs[j], Anti)
							break
						}
					}
				}
			}
		}
	}
	return nil
}

// Kind classifies a dependence.
type Kind int

// Dependence kinds.
const (
	Flow   Kind = iota // write then read (true dependence)
	Anti               // read then write
	Output             // write then write
)

func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	}
	return "?"
}

// Constraint describes the possible distance of a dependence at one loop.
type Constraint struct {
	Any bool // distance varies between instances
	D   int  // fixed distance when !Any
}

func (c Constraint) String() string {
	if c.Any {
		return "*"
	}
	return fmt.Sprintf("%+d", c.D)
}

// Dep is one dependence edge between two references, attributed to the loop
// that carries it. A single reference pair may yield several Dep entries,
// one per carrying loop observed.
type Dep struct {
	Array    string
	Kind     Kind
	Carrier  string     // carrying loop variable; "" if loop-independent
	Distance Constraint // distance at the carrier loop (meaningless if Carrier == "")
	// PerLoop gives the distance constraint at every common loop of the two
	// references, aggregated over the dependence instances with this
	// carrier. The compiler uses it to ask, e.g., whether a dependence
	// carried by an outer loop relates different indices of the distributed
	// loop (which means boundary communication every outer iteration).
	PerLoop map[string]Constraint
	// CommonLoops lists the loops common to both references, outermost
	// first.
	CommonLoops []string
	// CrossOwner reports whether some instance of this dependence connects
	// iterations executed by different owners of the distributed dimension.
	// Only meaningful under a directive that distributes arrays (DepsFor);
	// such dependences require communication.
	CrossOwner bool
	// Src and Dst are the textual references (source executes first).
	Src, Dst loopir.Ref
	// SrcStmt and DstStmt are statement ids in program order.
	SrcStmt, DstStmt int
}

// At returns the distance constraint of this dependence at the given loop.
// ok is false when the loop is not common to both endpoints.
func (d Dep) At(loop string) (Constraint, bool) {
	c, ok := d.PerLoop[loop]
	return c, ok
}

func (d Dep) String() string {
	carrier := d.Carrier
	if carrier == "" {
		carrier = "independent"
	}
	parts := make([]string, 0, len(d.CommonLoops))
	for _, l := range d.CommonLoops {
		parts = append(parts, fmt.Sprintf("%s:%s", l, d.PerLoop[l]))
	}
	return fmt.Sprintf("%s dep on %q: %s -> %s carried by %s (%s)",
		d.Kind, d.Array, d.Src.String(), d.Dst.String(), carrier, strings.Join(parts, " "))
}

// defaultSamples picks two small parameter bindings. Parameters named like
// iteration counts get small values; everything else gets a matrix size.
func defaultSamples(p *loopir.Program) []map[string]int {
	mk := func(size, iters int) map[string]int {
		m := map[string]int{}
		for _, prm := range p.Params {
			if strings.Contains(prm, "iter") {
				m[prm] = iters
			} else {
				m[prm] = size
			}
		}
		return m
	}
	return []map[string]int{mk(9, 3), mk(6, 2)}
}

// commonLoops returns loop variables common to both contexts, outermost
// first, following the source's order (common prefixes share order anyway).
func commonLoops(a, b []*loopir.Loop) []string {
	inB := map[string]bool{}
	for _, l := range b {
		inB[l.Var] = true
	}
	var out []string
	for _, l := range a {
		if inB[l.Var] {
			out = append(out, l.Var)
		}
	}
	return out
}

// PropertiesFor is Table 1 as the trace reads it under spec: the loop
// shape, a dependence carried by a distributed loop, and an owner-crossing
// dependence carried elsewhere.
func (a *Analysis) PropertiesFor(spec DistSpec) (Properties, error) {
	deps, err := a.DepsFor(spec)
	if err != nil {
		return Properties{}, err
	}
	pr, err := a.LoopShape(spec.Primary())
	if err != nil {
		return Properties{}, err
	}
	for _, d := range deps {
		if slices.Contains(spec.Loops, d.Carrier) {
			pr.LoopCarriedDeps = true
		} else if d.CrossOwner {
			pr.CommOutsideLoop = true
		}
	}
	return pr, nil
}
