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
// read an index array (IArr) counts as zero; the instance-bound estimate
// reads them. env binds every other name a bound reads; it is not written.
func EstFlops(stmts []Stmt, env map[string]int) float64 {
	return flops(nil, stmts, env, false)
}

// EstFlops is the instance-bound estimate: data-dependent (IArr) trip
// counts read the instance's arrays, read-only by validation, so it is
// stable across the run.
func (in *Instance) EstFlops(stmts []Stmt, env map[string]int) float64 {
	return flops(in, stmts, env, false)
}

// flops is Cost lowered and evaluated for one call.
func flops(in *Instance, stmts []Stmt, env map[string]int, exact bool) float64 {
	f := Frame{}
	c := f.Cost(in, stmts, env, exact)
	return c(make([]int, len(f)))
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
// for small instances and tests. env is read as EstFlops reads it.
func ExactFlops(stmts []Stmt, env map[string]int) int64 {
	return int64(flops(nil, stmts, env, true))
}
