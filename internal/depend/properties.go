package depend

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/loopir"
)

// Properties are the application features of Table 1 in the paper, relative
// to a chosen distributed loop. They drive every major load-balancing
// decision: restricted vs. unrestricted work movement, boundary
// communication, strip mining, run-time iteration tracking, and cost
// predictability.
type Properties struct {
	// LoopCarriedDeps: some dependence is carried by the distributed loop,
	// so the mapping of iterations to processors affects communication and
	// work movement must preserve the block distribution (Figure 1b). The
	// compiler reads it as a distributed loop that reads, at an offset, an
	// array it writes.
	LoopCarriedDeps bool
	// CommOutsideLoop: some dependence carried outside the distributed loop
	// crosses distributed-loop indices (or connects a statement outside the
	// distributed loop), so the parallel code must communicate each outer
	// iteration: the plan has a boundary exchange or an owner broadcast.
	CommOutsideLoop bool
	// RepeatedExecution: the distributed loop is nested inside another
	// loop, so each distributed iteration re-touches the same data and
	// moving work moves more computation per data element.
	RepeatedExecution bool
	// VaryingLoopBounds: the distributed loop's bounds depend on outer loop
	// indices, so the load balancer must track the active iterations at run
	// time (LU's shrinking column set).
	VaryingLoopBounds bool
	// IndexDependentSize: bounds of loops inside the distributed loop
	// depend on loop indices, so iteration cost varies between invocations.
	IndexDependentSize bool
	// DataDependentSize: conditionals make per-iteration cost depend on
	// data values, so cost cannot be predicted at all.
	DataDependentSize bool
}

// yesNo renders a bool the way Table 1 does.
func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Row renders the properties as a Table 1 row.
func (pr Properties) Row() []string {
	return []string{
		yesNo(pr.LoopCarriedDeps),
		yesNo(pr.CommOutsideLoop),
		yesNo(pr.RepeatedExecution),
		yesNo(pr.VaryingLoopBounds),
		yesNo(pr.IndexDependentSize),
		yesNo(pr.DataDependentSize),
	}
}

// PropertyNames are the Table 1 row labels, in order.
var PropertyNames = []string{
	"loop-carried dependences",
	"communication outside loop",
	"repeated execution of loop",
	"varying loop bounds",
	"index-dependent iteration size",
	"data-dependent iteration size",
}

func (pr Properties) String() string {
	var parts []string
	for i, v := range pr.Row() {
		parts = append(parts, fmt.Sprintf("%s=%s", PropertyNames[i], v))
	}
	return strings.Join(parts, ", ")
}

// LoopShape derives the four Table 1 properties that the distributed
// loop's place and shape decide: repeated execution, varying loop bounds,
// index-dependent and data-dependent iteration size. The compiler sets the
// two communication properties from the plan it generates.
func (a *Analysis) LoopShape(distLoop string) (Properties, error) {
	var pr Properties
	var loop *loopir.Loop
	loopir.Walk(a.Prog.Body, func(s loopir.Stmt, loops []*loopir.Loop) error {
		if l, ok := s.(*loopir.Loop); ok && loop == nil && l.Var == distLoop {
			loop = l
			pr.RepeatedExecution = len(loops) > 0
		}
		return nil
	})
	if loop == nil {
		return Properties{}, fmt.Errorf("depend: no loop %q in program %q", distLoop, a.Prog.Name)
	}

	referencesLoopVar := func(e loopir.IExpr) bool {
		f, err := loopir.AffineOf(e, nil)
		if err != nil {
			return true // non-affine: be conservative
		}
		return len(a.loopTerms(f)) > 0
	}
	pr.VaryingLoopBounds = referencesLoopVar(loop.Lo) || referencesLoopVar(loop.Hi)

	loopir.Walk(loop.Body, func(s loopir.Stmt, _ []*loopir.Loop) error {
		if l, ok := s.(*loopir.Loop); ok && (referencesLoopVar(l.Lo) || referencesLoopVar(l.Hi)) {
			pr.IndexDependentSize = true
		}
		if _, ok := s.(*loopir.If); ok {
			pr.DataDependentSize = true
		}
		return nil
	})
	return pr, nil
}

// DistLoopsFor returns the loop variables that scan dimension dim of the
// given array in write references — the loops that owner-computes
// distribution will parallelize (one per loop nest that updates the array,
// e.g. Jacobi's sweep and copy-back nests). Statements that write the array
// with a non-loop subscript in that dimension (e.g. LU's column-k
// normalization, whose distributed-dimension subscript is the outer k)
// yield no entry. The result preserves first-appearance order.
func (a *Analysis) DistLoopsFor(array string, dim int) []string {
	// scanVar is the one loop variable a write's subscript moves with at
	// unit stride; constants and parameters may ride along (a[j+n-1]).
	scanVar := func(r RefCtx) (string, bool) {
		if !r.Write || r.Ref.Array != array || dim >= len(r.Ref.Idx) {
			return "", false
		}
		f, err := loopir.AffineOf(r.Ref.Idx[dim], nil)
		if err != nil {
			return "", false
		}
		ts := a.loopTerms(f)
		if len(ts) != 1 || ts[0].Coef != 1 {
			return "", false
		}
		for _, l := range r.Loops {
			if l.Var == ts[0].Var {
				return l.Var, true
			}
		}
		return "", false
	}

	var candidates []string
	seen := map[string]bool{}
	for _, r := range a.Refs {
		if v, ok := scanVar(r); ok && !seen[v] {
			seen[v] = true
			candidates = append(candidates, v)
		}
	}

	// Disqualify a candidate loop if its body contains a write to the
	// array scanned by a *different* variable: such a loop (LU's outer k,
	// which encloses the j-scanned update) sequences distributed work
	// rather than being the distributed loop itself.
	var found []string
	for _, v := range candidates {
		ok := true
		for _, r := range a.Refs {
			inV := false
			for _, l := range r.Loops {
				if l.Var == v {
					inV = true
				}
			}
			if !inV {
				continue
			}
			if w, has := scanVar(r); has && w != v {
				ok = false
				break
			}
		}
		if ok {
			found = append(found, v)
		}
	}
	return found
}

// loopTerms returns f's terms over loop variables. A symbolic affine form
// keeps parameters as terms too; IsParam sets them apart.
func (a *Analysis) loopTerms(f loopir.Affine) []loopir.Term {
	return slices.DeleteFunc(slices.Clone(f.Terms), func(t loopir.Term) bool { return a.Prog.IsParam(t.Var) })
}
