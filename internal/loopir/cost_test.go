package loopir

import (
	"math"
	"testing"
)

// walkFlops is the flop walk over an environment map, as it was before
// the walk was lowered onto a frame: the oracle of Frame.Cost. Loop
// variables are bound in env and restored; a bound EvalIndex refuses
// skips the loop. exact walks every iteration and takes the larger If
// arm (ExactFlops); otherwise a loop is sampled at its midpoint, or, with
// in non-nil and an index-array trip count inside, walked per iteration.
func walkFlops(in *Instance, stmts []Stmt, env map[string]int, exact bool) float64 {
	total := 0.0
	for _, s := range stmts {
		switch s := s.(type) {
		case *Loop:
			lo, err1 := in.EvalIndex(s.Lo, env)
			hi, err2 := in.EvalIndex(s.Hi, env)
			if err1 != nil || err2 != nil || hi <= lo {
				continue
			}
			prev, bound := env[s.Var]
			if exact || in != nil && dataDependentTrips(s.Body) {
				for v := lo; v < hi; v++ {
					env[s.Var] = v
					total += walkFlops(in, s.Body, env, exact)
				}
			} else {
				env[s.Var] = lo + (hi-lo)/2
				total += float64(hi-lo) * walkFlops(in, s.Body, env, exact)
			}
			if bound {
				env[s.Var] = prev
			} else {
				delete(env, s.Var)
			}
		case *Assign:
			total += float64(exprOps(s.RHS) + 1)
		case *If:
			total += float64(exprOps(s.Cond.L)+exprOps(s.Cond.R)) + 1
			t, e := walkFlops(in, s.Then, env, exact), walkFlops(in, s.Else, env, exact)
			if exact {
				total += max(t, e)
			} else {
				total += 0.5 * (t + e)
			}
		}
	}
	return total
}

// TestCostMatchesTheEnvironmentWalk: EstFlops, the instance-bound
// EstFlops and ExactFlops, each one lowered walk, return the walk over an
// environment bit for bit on every library program, for the whole body
// and for every loop's body with the enclosing loops at their midpoints.
func TestCostMatchesTheEnvironmentWalk(t *testing.T) {
	params := kernelTestParams()
	progs := Library()
	// Bounds only Frame.Index's derived slots lower: a product of two loop
	// variables, arithmetic around an index-array read, and an
	// index-array read past its array at the last i, where the walk
	// skips the loop.
	i := Iv("i")
	params["nonaffine"] = map[string]int{"n": 9}
	progs["nonaffine"] = &Program{Name: "nonaffine", Params: []string{"n"},
		Arrays: []*ArrayDecl{{Name: "y", Dims: []IExpr{Iv("n")}}, initArray("c", "powrows", 5, Iv("n"))},
		Body: []Stmt{For("i", Ic(0), Iv("n"),
			For("j", Ic(0), Imul(i, Isub(i, Ic(1))), Set(Fref("y", i), Fadd(Fref("y", i), Fc(1)))),
			For("k", Isub(Ia("c", i), Ic(1)), Iadd(Ia("c", i), Imul(Ic(2), i)), Set(Fref("y", i), Fc(2))),
			For("m", Ic(0), Iadd(Ia("c", Iadd(i, Ic(1))), Ic(1)), Set(Fref("y", i), Fc(3))))},
	}
	for name, prog := range progs {
		in, err := NewInstance(prog, params[name])
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, stmts []Stmt, env map[string]int) {
			for _, c := range []struct {
				kind      string
				got, want float64
			}{
				{"EstFlops", EstFlops(stmts, env), walkFlops(nil, stmts, env, false)},
				{"Instance.EstFlops", in.EstFlops(stmts, env), walkFlops(in, stmts, env, false)},
				{"ExactFlops", float64(ExactFlops(stmts, env)), walkFlops(nil, stmts, env, true)},
			} {
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Errorf("%s %s: %s = %v, the environment walk %v", name, what, c.kind, c.got, c.want)
				}
			}
		}
		check("body", prog.Body, in.Params)
		Walk(prog.Body, func(s Stmt, loops []*Loop) error {
			l, ok := s.(*Loop)
			if !ok {
				return nil
			}
			env := map[string]int{}
			for k, v := range in.Params {
				env[k] = v
			}
			for _, o := range append(loops, l) {
				lo, _ := in.EvalIndex(o.Lo, env)
				hi, _ := in.EvalIndex(o.Hi, env)
				env[o.Var] = lo + (hi-lo)/2
			}
			check("loop "+l.Var, l.Body, env)
			return nil
		})
	}
}
