package loopir

// This file provides the static cost model: flop counts of statement
// lists, which the compiler uses for hook placement (paper §4.2: place the
// hook at the deepest level where its cost is a negligible fraction of the
// enclosed work) and the runtime for grain sizing and the tier gate. A
// flop count becomes a time only at one rate, dlb's vmRate on wall clock
// and FlopCost on the simulator; nothing here reads a clock.

func exprOps(e Expr) int {
	switch e := e.(type) {
	case Bin:
		return 1 + exprOps(e.L) + exprOps(e.R)
	default:
		return 0
	}
}

// EstFlops estimates the total floating-point operations of a statement
// list under the given environment. Loop trip counts are evaluated with
// enclosing loop variables bound to the midpoint of their ranges, which
// handles triangular nests like LU (where inner bounds depend on outer
// indices) with O(depth) work. If arms are averaged. A loop whose bounds
// read an index array (IArr) cannot be evaluated without data and counts
// as zero; use the instance-bound estimate for those. The walk binds loop
// variables in env (never nil) and restores it before it returns.
func EstFlops(stmts []Stmt, env map[string]int) float64 {
	return estFlops(nil, stmts, env)
}

// EstFlops is the instance-bound estimate: loop bounds are evaluated
// against the instance's arrays, so data-dependent (IArr) trip counts
// contribute their actual data-driven cost instead of being skipped the
// way the package-level EstFlops must. Index arrays are read-only by
// validation, so the estimate is stable across the run.
func (in *Instance) EstFlops(stmts []Stmt, env map[string]int) float64 {
	return estFlops(in, stmts, env)
}

// rebind restores env[v] to what it was before a loop bound v.
func rebind(env map[string]int, v string, prev int, bound bool) {
	if bound {
		env[v] = prev
	} else {
		delete(env, v)
	}
}

// estFlops is the one estimate walk. in, when non-nil, evaluates loop
// bounds against its arrays; nil evaluates them from env alone. Loop
// variables are bound in env and rebound on the way out.
func estFlops(in *Instance, stmts []Stmt, env map[string]int) float64 {
	total := 0.0
	for _, s := range stmts {
		switch s := s.(type) {
		case *Loop:
			lo, err1 := in.EvalIndex(s.Lo, env)
			hi, err2 := in.EvalIndex(s.Hi, env)
			if err1 != nil || err2 != nil {
				continue // unbound variable: treat as zero-cost, caller beware
			}
			trip := hi - lo
			if trip <= 0 {
				continue
			}
			prev, bound := env[s.Var]
			if in != nil && dataDependentTrips(s.Body) {
				// A nested trip count reads an index array through this
				// loop's variable: the midpoint row is not representative
				// on skewed data, so sum the body over every iteration.
				for v := lo; v < hi; v++ {
					env[s.Var] = v
					total += estFlops(in, s.Body, env)
				}
			} else {
				env[s.Var] = lo + trip/2
				total += float64(trip) * estFlops(in, s.Body, env)
			}
			rebind(env, s.Var, prev, bound)
		case *Assign:
			total += float64(exprOps(s.RHS) + 1)
		case *If:
			total += float64(exprOps(s.Cond.L)+exprOps(s.Cond.R)) + 1
			total += 0.5 * (estFlops(in, s.Then, env) + estFlops(in, s.Else, env))
		}
	}
	return total
}

// dataDependentTrips reports whether any loop in the subtree has a
// data-dependent (IArr) trip count — the case where midpoint-sampling an
// enclosing loop misestimates total cost on skewed data.
func dataDependentTrips(stmts []Stmt) bool {
	set := map[string]bool{}
	Walk(stmts, func(s Stmt, _ []*Loop) error {
		if l, ok := s.(*Loop); ok {
			collectIArrIdx(l.Lo, set)
			collectIArrIdx(l.Hi, set)
		}
		return nil
	})
	return len(set) > 0
}

// ExactFlops counts the floating-point operations of a statement list by
// walking the full iteration space (without touching data, so If arms are
// maximized). Exponential in nothing, but linear in total iterations — use
// for small instances and tests. Like EstFlops, it binds loop variables in
// env (never nil) and restores it before it returns.
func ExactFlops(stmts []Stmt, env map[string]int) int64 {
	var total int64
	for _, s := range stmts {
		switch s := s.(type) {
		case *Loop:
			lo, err1 := EvalIndex(s.Lo, env)
			hi, err2 := EvalIndex(s.Hi, env)
			if err1 != nil || err2 != nil {
				continue
			}
			prev, bound := env[s.Var]
			for v := lo; v < hi; v++ {
				env[s.Var] = v
				total += ExactFlops(s.Body, env)
			}
			rebind(env, s.Var, prev, bound)
		case *Assign:
			total += int64(exprOps(s.RHS) + 1)
		case *If:
			total += int64(exprOps(s.Cond.L) + exprOps(s.Cond.R) + 1)
			t, e := ExactFlops(s.Then, env), ExactFlops(s.Else, env)
			if t > e {
				total += t
			} else {
				total += e
			}
		}
	}
	return total
}
