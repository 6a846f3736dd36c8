package loopir

import (
	"sync"
	"time"
)

// This file provides the static cost model the compiler uses for hook
// placement (paper §4.2: place the hook at the deepest level where its cost
// is a negligible fraction of the enclosed work) and for grain-size and
// calibration decisions.

var (
	kernelRateOnce sync.Once
	kernelRateVal  float64
)

// KernelRate reports the measured execution rate of the compiled-kernel
// path, in model flops per second, by timing a small stencil kernel once
// per process and caching the result. The real and TCP runtimes use it to
// rebase ratio-style constants (the §4.2 <1% hook rule, the adaptive
// balancing period) on actual kernel speed instead of the tree-walking
// interpreter's: a per-visit cost that was negligible against interpreted
// iterations is an order of magnitude more visible against compiled ones.
func KernelRate() float64 {
	kernelRateOnce.Do(func() {
		kernelRateVal = 1e9 // conservative fallback if calibration fails
		prog, ok := Library()["jacobi"]
		if !ok {
			return
		}
		params := map[string]int{"n": 96, "maxiter": 4}
		in, err := NewInstance(prog, params)
		if err != nil {
			return
		}
		k, err := in.CompileKernel(in.Prog.Body)
		if err != nil {
			return
		}
		flops := float64(ExactFlops(in.Prog.Body, params))
		k.Run(nil) // warm caches and the exec pool
		const runs = 3
		start := time.Now()
		for i := 0; i < runs; i++ {
			k.Run(nil)
		}
		if sec := time.Since(start).Seconds(); sec > 0 {
			kernelRateVal = runs * flops / sec
		}
	})
	return kernelRateVal
}

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
// as zero; use the instance-bound estimate for those.
func EstFlops(stmts []Stmt, env map[string]int) float64 {
	return estFlops(nil, stmts, cloneEnv(env))
}

// EstFlops is the instance-bound estimate: loop bounds are evaluated
// against the instance's arrays, so data-dependent (IArr) trip counts
// contribute their actual data-driven cost instead of being skipped the
// way the package-level EstFlops must. Index arrays are read-only by
// validation, so the estimate is stable across the run.
func (in *Instance) EstFlops(stmts []Stmt, env map[string]int) float64 {
	return estFlops(in, stmts, cloneEnv(env))
}

// cloneEnv copies env (never nil) so a walk can bind loop variables in it.
func cloneEnv(env map[string]int) map[string]int {
	local := make(map[string]int, len(env))
	for k, v := range env {
		local[k] = v
	}
	return local
}

// estFlops is the one estimate walk. in, when non-nil, evaluates loop
// bounds against its arrays; nil evaluates them from env alone. env is
// scratch: loop variables are bound and unbound in place.
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
			if in != nil && dataDependentTrips(s.Body) {
				// A nested trip count reads an index array through this
				// loop's variable: the midpoint row is not representative
				// on skewed data, so sum the body over every iteration.
				for v := lo; v < hi; v++ {
					env[s.Var] = v
					total += estFlops(in, s.Body, env)
				}
				delete(env, s.Var)
				continue
			}
			env[s.Var] = lo + trip/2
			total += float64(trip) * estFlops(in, s.Body, env)
			delete(env, s.Var)
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
// for small instances and tests.
func ExactFlops(stmts []Stmt, env map[string]int) int64 {
	return exactFlops(stmts, cloneEnv(env))
}

func exactFlops(stmts []Stmt, env map[string]int) int64 {
	var total int64
	for _, s := range stmts {
		switch s := s.(type) {
		case *Loop:
			lo, err1 := EvalIndex(s.Lo, env)
			hi, err2 := EvalIndex(s.Hi, env)
			if err1 != nil || err2 != nil {
				continue
			}
			for v := lo; v < hi; v++ {
				env[s.Var] = v
				total += exactFlops(s.Body, env)
			}
			delete(env, s.Var)
		case *Assign:
			total += int64(exprOps(s.RHS) + 1)
		case *If:
			total += int64(exprOps(s.Cond.L) + exprOps(s.Cond.R) + 1)
			t, e := exactFlops(s.Then, env), exactFlops(s.Else, env)
			if t > e {
				total += t
			} else {
				total += e
			}
		}
	}
	return total
}
