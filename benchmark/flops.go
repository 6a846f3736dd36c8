package main

import "repro/internal/loopir"

// flopCount is loopir.ExactFlops for the benchmark's sizes. ExactFlops
// walks every iteration (15 s for 1500 Jacobi sweeps of a 512x512 grid);
// this multiplies out a loop none of whose nested loop bounds mention its
// variable, and walks only the others (LU's shrinking column loop). The
// two agree on every program the benchmark runs; a test keeps them equal.
func flopCount(stmts []loopir.Stmt, params map[string]int) int64 {
	env := map[string]int{}
	for k, v := range params {
		env[k] = v
	}
	return countFlops(stmts, env)
}

func countFlops(stmts []loopir.Stmt, env map[string]int) int64 {
	var total int64
	for _, s := range stmts {
		l, ok := s.(*loopir.Loop)
		if !ok {
			total += loopir.ExactFlops([]loopir.Stmt{s}, env)
			continue
		}
		lo, err1 := loopir.EvalIndex(l.Lo, env)
		hi, err2 := loopir.EvalIndex(l.Hi, env)
		if err1 != nil || err2 != nil || hi <= lo {
			continue
		}
		if !boundsMention(l.Body, l.Var) {
			env[l.Var] = lo
			total += int64(hi-lo) * countFlops(l.Body, env)
		} else {
			for v := lo; v < hi; v++ {
				env[l.Var] = v
				total += countFlops(l.Body, env)
			}
		}
		delete(env, l.Var)
	}
	return total
}

// boundsMention reports whether any loop bound nested in stmts reads v.
func boundsMention(stmts []loopir.Stmt, v string) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *loopir.Loop:
			if mentions(s.Lo, v) || mentions(s.Hi, v) || boundsMention(s.Body, v) {
				return true
			}
		case *loopir.If:
			if boundsMention(s.Then, v) || boundsMention(s.Else, v) {
				return true
			}
		}
	}
	return false
}

func mentions(e loopir.IExpr, v string) bool {
	switch e := e.(type) {
	case loopir.IVar:
		return string(e) == v
	case loopir.IBin:
		return mentions(e.L, v) || mentions(e.R, v)
	case loopir.IArr:
		for _, idx := range e.Idx {
			if mentions(idx, v) {
				return true
			}
		}
	}
	return false
}
