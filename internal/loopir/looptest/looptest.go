// Package looptest generates loop-IR programs for differential tests and
// reads the compiler's refusal table. Only _test.go files import it.
package looptest

import (
	"math/rand"

	"repro/internal/loopir"
)

// Program builds a random but always-valid loop-nest program: a nest
// of 1–3 loops over [1, n-1) with affine subscripts offset by -1/0/+1 (safe
// within the loop bounds) and random arithmetic right-hand sides. It is
// used to cross-check the compiled kernel against the interpreter on inputs
// no human wrote. With unsafe set, each loop runs over one of [0, n),
// [0, n-1), [1, n) and [1, n-1), so a ±1 subscript may leave its
// dimension, and each assignment may sit under an If on a read of a, so
// an out-of-range access may run only for some data. With recur set, an
// operand may also be the stored element itself or the element one step
// behind it in the innermost loop (a reduction or a recurrence when it is
// loaded once), and an operator may be / by 0.5, 2 or 4; in a safe program
// a step behind that would leave the array reads the stored element.
// Without recur the draws are those of the generator before it had the
// option, so a seed gives the program it always gave.
func Program(r *rand.Rand, unsafe, recur bool) *loopir.Program {
	n := loopir.Iv("n")
	depth := 1 + r.Intn(3)
	vars := []string{"i", "j", "k"}[:depth]

	// sub is one subscript: variable v offset by c.
	type sub struct {
		v string
		c int
	}
	idx := func() sub {
		v := vars[r.Intn(len(vars))]
		return sub{v, []int{-1, 1, 0}[r.Intn(3)]}
	}
	at := func(s sub) loopir.IExpr {
		switch {
		case s.c < 0:
			return loopir.Isub(loopir.Iv(s.v), loopir.Ic(-s.c))
		case s.c > 0:
			return loopir.Iadd(loopir.Iv(s.v), loopir.Ic(s.c))
		}
		return loopir.Iv(s.v)
	}
	refAt := func(s0, s1 sub) loopir.Ref { return loopir.Fref("a", at(s0), at(s1)) }
	ref := func() loopir.Ref { return refAt(idx(), idx()) }

	// stored and behind are the current assignment's stored element and
	// the element one step behind it in the innermost loop.
	var stored, behind loopir.Ref
	setStored := func() loopir.Ref {
		s := [2]sub{idx(), idx()}
		b, ok := s, true
		for i := range b {
			if b[i].v == vars[depth-1] {
				b[i].c--
				ok = ok && (unsafe || b[i].c >= -1)
			}
		}
		if !ok {
			b = s
		}
		stored, behind = refAt(s[0], s[1]), refAt(b[0], b[1])
		return stored
	}

	var dataExpr func(depth int) loopir.Expr
	dataExpr = func(d int) loopir.Expr {
		if d <= 0 || r.Intn(3) == 0 {
			if recur {
				switch r.Intn(4) {
				case 0:
					return loopir.Fc(float64(r.Intn(7)) * 0.25)
				case 1:
					return ref()
				case 2:
					return stored
				}
				return behind
			}
			if r.Intn(2) == 0 {
				return loopir.Fc(float64(r.Intn(7)) * 0.25)
			}
			return ref()
		}
		ops := []byte{'+', '-', '*'}
		if recur {
			ops = append(ops, '/')
		}
		op := ops[r.Intn(len(ops))]
		if op == '/' {
			return loopir.Bin{Op: op, L: dataExpr(d - 1), R: loopir.Fc([]float64{0.5, 2, 4}[r.Intn(3)])}
		}
		return loopir.Bin{Op: op, L: dataExpr(d - 1), R: dataExpr(d - 1)}
	}

	nAssigns := 1 + r.Intn(3)
	var body []loopir.Stmt
	for a := 0; a < nAssigns; a++ {
		var s loopir.Stmt = loopir.Set(setStored(), dataExpr(2))
		if unsafe && r.Intn(2) == 0 {
			s = &loopir.If{Cond: loopir.Cond{Op: ">", L: ref(), R: loopir.Fc(0.7)}, Then: []loopir.Stmt{s}}
		}
		body = append(body, s)
	}
	var stmt loopir.Stmt
	for d := depth - 1; d >= 0; d-- {
		if stmt != nil {
			body = []loopir.Stmt{stmt}
		}
		lo, hi := loopir.Ic(1), loopir.Isub(n, loopir.Ic(1))
		if unsafe {
			lo, hi = loopir.Ic(r.Intn(2)), loopir.Isub(n, loopir.Ic(r.Intn(2)))
		}
		stmt = loopir.For(vars[d], lo, hi, body...)
	}
	fill, spec, _ := loopir.Initializer("hash", 99)
	return &loopir.Program{
		Name:   "rand",
		Params: []string{"n"},
		Arrays: []*loopir.ArrayDecl{{Name: "a", Dims: []loopir.IExpr{n, n}, Init: fill, InitSpec: spec}},
		Body:   []loopir.Stmt{stmt},
	}
}
