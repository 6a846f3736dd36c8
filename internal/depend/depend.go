// Package depend performs data-dependence analysis on loopir programs.
//
// The paper's load balancer "explicitly consider[s] application data
// dependences and loop structure"; this package supplies that knowledge
// from the program text: which loop carries the flow from a write into a
// read (forcing a pipeline when it is the distributed loop, and placing a
// boundary exchange otherwise), the loops that scan a distributed
// dimension, and the loop-shape half of the Table 1 application properties.
//
// Analyze numbers a program's references and runs nothing. Sources
// decides, for one read, which writes may feed it and which loop carries
// each flow, by the
// uniform-pair distance equations: one per subscript dimension, over the
// loops the write and the read share. A pair the equations cannot pin is
// taken to depend at every free loop, so the answer errs toward more
// communication, never less. The tests hold it to a concrete oracle, a
// tracer that runs small instances of the program on loopir's interpreter.
package depend

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/loopir"
)

// RefCtx is a reference together with its nest context.
type RefCtx struct {
	Ref    loopir.Ref
	Write  bool
	Loops  []*loopir.Loop // enclosing loops, outermost first
	StmtID int            // the statement's place in program order
	RefIdx int            // position among the statement's reads (writes use -1)
}

// Analysis holds what the dependence analysis knows of one program before
// any directive: its references.
type Analysis struct {
	Prog  *loopir.Program
	Refs  []RefCtx
	stmts map[loopir.Stmt]stmtRefs
}

// stmtRefs locates one Assign's or If's references in Analysis.Refs: read
// ord is Refs[first+ord] for ord < reads, an Assign's write Refs[first+reads].
type stmtRefs struct{ id, first, reads int }

// Analyze validates the program and collects its references. It runs
// nothing.
func Analyze(p *loopir.Program) (*Analysis, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a := &Analysis{Prog: p, stmts: map[loopir.Stmt]stmtRefs{}}
	a.collectRefs()
	return a, nil
}

// DistSpec describes a data distribution: which dimension of which arrays
// is distributed, and the loop variables that scan that dimension in each
// updating loop nest (usually one; Jacobi-style programs have one per
// nest). It corresponds to the data alignment and distribution directives
// that Fortran D-style compilers take from the programmer.
type DistSpec struct {
	// Dims maps distributed array names to their distributed dimension.
	Dims map[string]int
	// Loops are the distributed loop variables, one per updating nest,
	// first is primary.
	Loops []string
}

// ParseDist reads the command-line form of a directive, "array:dim" entries
// separated by commas. It names no loops: the compiler finds the loops that
// scan the distributed dimensions.
func ParseDist(s string) (DistSpec, error) {
	spec := DistSpec{Dims: map[string]int{}}
	for _, part := range strings.Split(s, ",") {
		arr, dimText, ok := strings.Cut(part, ":")
		dim, err := strconv.Atoi(dimText)
		if !ok || arr == "" || err != nil {
			return DistSpec{}, fmt.Errorf("bad distribution entry %q (want array:dim)", part)
		}
		spec.Dims[arr] = dim
	}
	return spec, nil
}

// Primary returns the primary distributed loop variable.
func (s DistSpec) Primary() string {
	if len(s.Loops) == 0 {
		return ""
	}
	return s.Loops[0]
}

// collectRefs numbers the program's Assign and If statements in program
// order and files their references in a.Refs: the reads in the order the
// interpreter reports them, then an Assign's write.
func (a *Analysis) collectRefs() {
	id := 0
	loopir.Walk(a.Prog.Body, func(s loopir.Stmt, loops []*loopir.Loop) error {
		if _, ok := s.(*loopir.Loop); ok {
			return nil
		}
		ctx := slices.Clone(loops)
		sr := stmtRefs{id: id, first: len(a.Refs)}
		id++
		loopir.Reads(s, func(r loopir.Ref) error {
			a.Refs = append(a.Refs, RefCtx{Ref: r, Loops: ctx, StmtID: sr.id, RefIdx: sr.reads})
			sr.reads++
			return nil
		})
		if as, ok := s.(*loopir.Assign); ok {
			a.Refs = append(a.Refs, RefCtx{Ref: as.LHS, Write: true, Loops: ctx, StmtID: sr.id, RefIdx: -1})
		}
		a.stmts[s] = sr
		return nil
	})
}

// WrittenArrays returns the names of arrays that are written, sorted.
func (a *Analysis) WrittenArrays() []string {
	set := map[string]bool{}
	for _, r := range a.Refs {
		if r.Write {
			set[r.Ref.Array] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Source is a write that may feed a read, and the loop that carries the
// flow from it, one of the write's enclosing loops: "" for a
// loop-independent flow (the write comes earlier in the same iteration of
// every loop the two share), which is innermost.
type Source struct {
	Write   RefCtx
	Carrier string
}

// Sources returns the writes that may feed read r of statement s, in
// program order, with the loop carrying each flow.
func (a *Analysis) Sources(s loopir.Stmt, r loopir.Ref) []Source {
	sr := a.stmts[s]
	i := slices.IndexFunc(a.Refs[sr.first:sr.first+sr.reads], func(rc RefCtx) bool { return rc.Ref.String() == r.String() })
	if i < 0 {
		return nil
	}
	var out []Source
	for _, w := range a.Refs {
		if w.Write && w.Ref.Array == r.Array {
			if l, flow := a.carrier(w, a.Refs[sr.first+i]); flow {
				out = append(out, Source{w, l})
			}
		}
	}
	return out
}

// carrier decides which loop carries the flow from write w into read r,
// and whether there can be one. Walking the loops the two share outermost
// first, with the loops pins leaves free at 0, the first non-zero distance
// decides: Δ > 0 is carried by its loop, Δ < 0 by the innermost free loop
// before it. If every pin is 0, the flow is loop-independent ("") when w's
// statement comes first, and otherwise carried by the innermost free loop.
// With no loop to carry it, there is no flow.
func (a *Analysis) carrier(w, r RefCtx) (string, bool) {
	n := 0
	for n < len(w.Loops) && n < len(r.Loops) && w.Loops[n] == r.Loops[n] {
		n++
	}
	common := w.Loops[:n]
	pins, flow := a.pins(w.Ref, r.Ref, common)
	if !flow {
		return "", false
	}
	// innermostFree is the innermost unpinned loop of common[:k].
	innermostFree := func(k int) (string, bool) {
		for k--; k >= 0; k-- {
			if _, pinned := pins[common[k].Var]; !pinned {
				return common[k].Var, true
			}
		}
		return "", false
	}
	for k, l := range common {
		if d := pins[l.Var]; d > 0 {
			return l.Var, true
		} else if d < 0 {
			return innermostFree(k)
		}
	}
	if w.StmtID < r.StmtID {
		return "", true
	}
	return innermostFree(len(common))
}

// pins solves the uniform-pair distance equations of write w and read r,
// one per subscript dimension, over the loops common to both. A dimension
// pins the distance Δ (r's iteration minus w's) of loop L when both
// subscripts are L times the same coefficient plus a constant, with the
// same parameters; a dimension whose subscripts name no loop and differ by
// a constant proves there is no flow, as do two pins of one loop that
// disagree, or a distance the coefficient does not divide. Every other
// dimension pins nothing.
func (a *Analysis) pins(w, r loopir.Ref, common []*loopir.Loop) (map[string]int, bool) {
	pins := map[string]int{}
	for d := range w.Idx {
		fw, err1 := loopir.AffineOf(w.Idx[d], nil)
		fr, err2 := loopir.AffineOf(r.Idx[d], nil)
		if err1 != nil || err2 != nil || !a.sameParams(fw, fr) {
			continue
		}
		tw, tr := a.loopTerms(fw), a.loopTerms(fr)
		switch {
		case len(tw) == 0 && len(tr) == 0:
			if fw.Const != fr.Const {
				return nil, false
			}
		case len(tw) == 1 && len(tr) == 1 && tw[0] == tr[0] &&
			slices.ContainsFunc(common, func(l *loopir.Loop) bool { return l.Var == tw[0].Var }):
			diff, c := fw.Const-fr.Const, tw[0].Coef
			if pin, seen := pins[tw[0].Var]; diff%c != 0 || seen && pin != diff/c {
				return nil, false
			}
			pins[tw[0].Var] = diff / c
		}
	}
	return pins, true
}

// sameParams reports whether two forms name every parameter with the same
// coefficient, so that the parameters cancel between them.
func (a *Analysis) sameParams(f, g loopir.Affine) bool {
	for _, t := range slices.Concat(f.Terms, g.Terms) {
		if a.Prog.IsParam(t.Var) && f.Coef(t.Var) != g.Coef(t.Var) {
			return false
		}
	}
	return true
}
