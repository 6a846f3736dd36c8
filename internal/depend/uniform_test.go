package depend

import (
	"fmt"
	"slices"

	"repro/internal/loopir"
)

// This file checks the compiler's static rule (carrier and its
// uniform-pair distance equations, pins) against the concrete tracer, and
// keeps the GCD independence test as a second, symbolic oracle: every
// distance the trace observes must satisfy the equations, every flow it
// observes must have a static carrier at least as deep as the trace's, and
// the GCD test must never prove independent a pair the trace observed.

// UniformCheck validates the unattributed trace of a against the static
// rule. For each flow the trace observed from a write to a read: carrier
// must allow the flow and name a carrier no outer than the trace's (a
// loop-independent flow is innermost), and every distance pins fixes must
// be the one the trace observed at that loop. It returns an error
// describing the first inconsistency.
func UniformCheck(a *Analysis) error {
	deps, err := a.DepsFor(DistSpec{})
	if err != nil {
		return err
	}
	ctx := func(stmt int, r loopir.Ref, write bool) RefCtx {
		i := slices.IndexFunc(a.Refs, func(rc RefCtx) bool {
			return rc.StmtID == stmt && rc.Write == write && rc.Ref.String() == r.String()
		})
		return a.Refs[i]
	}
	for _, dep := range deps {
		if dep.Kind != Flow {
			continue
		}
		w, r := ctx(dep.SrcStmt, dep.Src, true), ctx(dep.DstStmt, dep.Dst, false)
		depth := func(carrier string) int {
			if carrier == "" {
				return len(r.Loops)
			}
			return slices.IndexFunc(r.Loops, func(l *loopir.Loop) bool { return l.Var == carrier })
		}
		if c, flow := a.carrier(w, r); !flow || depth(c) < depth(dep.Carrier) {
			return fmt.Errorf("depend: %s: static carrier %q (flow %v) is outer to the trace's", dep.String(), c, flow)
		}
		pins, _ := a.pins(w.Ref, r.Ref, r.Loops[:len(dep.CommonLoops)])
		for v, d := range pins {
			if cons := dep.PerLoop[v]; cons.Any || cons.D != d {
				return fmt.Errorf("depend: %s violates the uniform equation Δ%s = %d", dep.String(), v, d)
			}
		}
	}
	return nil
}

// GCDIndependent applies the GCD test to a reference pair: it returns true
// when some dimension's equation Σ coef·iter = constDiff provably has no
// integer solution because gcd(coefs) does not divide the constant
// difference. Parameters must cancel for the test to apply; dimensions
// where they do not are skipped. A true result proves there is no
// dependence between the references.
func GCDIndependent(p *loopir.Program, a, b loopir.Ref) bool {
	if a.Array != b.Array || len(a.Idx) != len(b.Idx) {
		return false
	}
	for d := range a.Idx {
		la, err1 := loopir.AffineOf(a.Idx[d], nil)
		lb, err2 := loopir.AffineOf(b.Idx[d], nil)
		if err1 != nil || err2 != nil {
			continue
		}
		// Equation: Σ la's loop terms − Σ lb's loop terms = lb.Const −
		// la.Const. Parameters must cancel: same param coefficients on
		// both sides.
		paramsEqual := true
		g := 0
		for _, t := range slices.Concat(la.Terms, lb.Terms) {
			if !p.IsParam(t.Var) {
				g = gcd(g, abs(t.Coef))
			} else if la.Coef(t.Var) != lb.Coef(t.Var) {
				paramsEqual = false
			}
		}
		if !paramsEqual {
			continue
		}
		diff := lb.Const - la.Const
		if g == 0 {
			if diff != 0 {
				return true // constant subscripts that differ
			}
			continue
		}
		if diff%g != 0 {
			return true
		}
	}
	return false
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
