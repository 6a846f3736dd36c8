package depend

import (
	"fmt"
	"slices"

	"repro/internal/loopir"
)

// This file is the test oracle: the classic symbolic dependence machinery
// for uniformly generated reference pairs (equal subscript coefficients) —
// the per-dimension distance equations and the GCD independence test. The
// concrete engine is the analysis (it models exactly the last-write pairing
// the communication generator needs); the symbolic one validates it — every
// fixed distance the concrete engine reports for a uniform pair must
// satisfy the per-dimension equations, and the GCD test must never prove
// independent a pair the concrete engine observed.

// pairEquation is the constraint Σ coef·Δvar = rhs derived from one
// subscript dimension of a uniformly generated pair.
type pairEquation struct {
	coef map[string]int // per common loop variable
	rhs  int            // srcConst - dstConst
}

// uniformEquations derives the per-dimension distance equations for a pair
// of references to the same array, or ok=false when the pair is not
// uniformly generated (different coefficients) or not affine.
func uniformEquations(p *loopir.Program, src, dst loopir.Ref) ([]pairEquation, bool) {
	if src.Array != dst.Array || len(src.Idx) != len(dst.Idx) {
		return nil, false
	}
	var eqs []pairEquation
	for d := range src.Idx {
		ls, err1 := loopir.AffineOf(src.Idx[d], nil)
		ld, err2 := loopir.AffineOf(dst.Idx[d], nil)
		if err1 != nil || err2 != nil {
			return nil, false
		}
		if !sameCoeffs(ls, ld) {
			return nil, false
		}
		coef := map[string]int{}
		for _, t := range ls.Terms {
			if !p.IsParam(t.Var) {
				coef[t.Var] = t.Coef
			}
		}
		eqs = append(eqs, pairEquation{coef: coef, rhs: ls.Const - ld.Const})
	}
	return eqs, true
}

// UniformCheck validates every concrete dependence between uniformly
// generated reference pairs against the symbolic distance equations:
// for each dimension, Σ coef·Δ must equal srcConst − dstConst whenever all
// the involved loops have fixed observed distances. It returns an error
// describing the first inconsistency.
func UniformCheck(a *Analysis) error {
	deps, err := a.DepsFor(DistSpec{})
	if err != nil {
		return err
	}
	for _, dep := range deps {
		eqs, ok := uniformEquations(a.Prog, dep.Src, dep.Dst)
		if !ok {
			continue
		}
		for _, eq := range eqs {
			sum, allFixed := 0, true
			for v, c := range eq.coef {
				cons, has := dep.PerLoop[v]
				if !has || cons.Any {
					allFixed = false
					break
				}
				sum += c * cons.D
			}
			if allFixed && sum != eq.rhs {
				return fmt.Errorf("depend: %s violates uniform equation (Σcoef·Δ = %d, want %d)", dep.String(), sum, eq.rhs)
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

// sameCoeffs reports whether two forms have the same coefficient for every
// variable, in whatever order their terms appear.
func sameCoeffs(a, b loopir.Affine) bool {
	if len(a.Terms) != len(b.Terms) {
		return false
	}
	for _, t := range a.Terms {
		if b.Coef(t.Var) != t.Coef {
			return false
		}
	}
	return true
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
