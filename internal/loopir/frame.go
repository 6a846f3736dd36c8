package loopir

import (
	"cmp"
	"fmt"
)

// Frame lays out a run's integer frame: each name a lowered step, kernel
// or estimate reads gets a fixed slot on first use, and the run keeps the
// values in one []int of len(Frame). Known parameters fold to constants.
type Frame map[string]int

// Slot returns name's slot, assigning the next one on first use.
func (f Frame) Slot(name string) int {
	s, ok := f[name]
	if !ok {
		s = len(f)
		f[name] = s
	}
	return s
}

// Index is an index expression lowered onto a frame: EvalIndex's value
// under the frame's values, ok false where EvalIndex errs (an index-array
// read outside its array).
type Index func(frame []int) (v int, ok bool)

// Index lowers e onto f, folding the known names (decompose): its affine
// form over the slots, where each part AffineOf refuses takes a slot of
// its own, set first. in serves index-array reads; with in nil one is an
// error, as it is to EvalIndex. bound, if non-nil, says which other names
// e may read; any other is an error.
func (f Frame) Index(in *Instance, e IExpr, known map[string]int, bound func(string) bool) (Index, error) {
	var unbound error
	slots := func(a Affine) lin {
		l := lin{c: a.Const}
		for _, t := range a.Terms {
			if bound != nil && t.Var[0] != '#' && !bound(t.Var) {
				unbound = cmp.Or(unbound, fmt.Errorf("unbound index variable %q", t.Var))
			}
			l.terms = append(l.terms, linTerm{f.Slot(t.Var), t.Coef})
		}
		return l
	}
	var derived []func(frame []int) bool
	var derive func(e IExpr, l, r Affine) (string, error)
	derive = func(e IExpr, l, r Affine) (string, error) {
		ll, rl := slots(l), slots(r)
		var arr *Array
		var sub []lin
		if e, ok := e.(IArr); ok {
			if in != nil {
				arr = in.Arrays[e.Array]
			}
			if arr == nil {
				return "", fmt.Errorf("unknown index expression %T", e)
			}
			for _, ie := range e.Idx {
				a, err := decompose(ie, known, derive)
				if err != nil {
					return "", err
				}
				sub = append(sub, slots(a))
			}
		}
		name := fmt.Sprint("#", len(f)) // a fresh slot no source variable names
		slot := f.Slot(name)
		derived = append(derived, func(frame []int) bool {
			if arr == nil {
				frame[slot] = ll.eval(frame) * rl.eval(frame)
				return true
			}
			off, err := arr.offset(func(d int) (int, error) { return sub[d].eval(frame), nil })
			if err == nil {
				frame[slot] = int(arr.Data[off])
			}
			return err == nil
		})
		return name, nil
	}
	a, err := decompose(e, known, derive)
	l := slots(a)
	if err = cmp.Or(err, unbound); err != nil {
		return nil, err
	}
	if len(derived) == 0 {
		return func(frame []int) (int, bool) { return l.eval(frame), true }, nil
	}
	return func(frame []int) (int, bool) {
		for _, d := range derived {
			if !d(frame) {
				return 0, false
			}
		}
		return l.eval(frame), true
	}, nil
}

// Cost is the one flop walk (EstFlops, ExactFlops) lowered onto a frame
// once: the walk's total under the frame's values, which it leaves as
// found. It binds the same midpoints, skips the same loops and adds in
// the same order as the walk over an environment, so it returns the same
// float64 bit for bit.
type Cost func(frame []int) float64

// Cost lowers the estimate of stmts onto f, or with exact set
// ExactFlops' count: every iteration summed and the larger If arm taken.
// With in non-nil it is the instance-bound estimate: index-array bounds
// read in's arrays, and a loop whose nested trip counts read one sums
// every iteration. A loop whose bounds cannot be lowered counts as zero,
// as in EstFlops. Each statement adds its share to the running total.
func (f Frame) Cost(in *Instance, stmts []Stmt, known map[string]int, exact bool) Cost {
	var adds []func(frame []int, total float64) float64
	for _, s := range stmts {
		switch s := s.(type) {
		case *Loop:
			lo, err1 := f.Index(in, s.Lo, known, nil)
			hi, err2 := f.Index(in, s.Hi, known, nil)
			if err1 != nil || err2 != nil {
				continue
			}
			slot, body := f.Slot(s.Var), f.Cost(in, s.Body, known, exact)
			every := exact || in != nil && dataDependentTrips(s.Body)
			adds = append(adds, func(frame []int, total float64) float64 {
				l, lok := lo(frame)
				h, hok := hi(frame)
				if !lok || !hok || h <= l {
					return total
				}
				prev := frame[slot]
				for v := l; every && v < h; v++ {
					frame[slot] = v
					total += body(frame)
				}
				if !every {
					frame[slot] = l + (h-l)/2
					total += float64(h-l) * body(frame)
				}
				frame[slot] = prev
				return total
			})
		case *Assign:
			ops := float64(exprOps(s.RHS) + 1)
			adds = append(adds, func(_ []int, total float64) float64 { return total + ops })
		case *If:
			ops := float64(exprOps(s.Cond.L)+exprOps(s.Cond.R)) + 1
			then, els := f.Cost(in, s.Then, known, exact), f.Cost(in, s.Else, known, exact)
			adds = append(adds, func(frame []int, total float64) float64 {
				if exact {
					return total + ops + max(then(frame), els(frame))
				}
				return total + ops + 0.5*(then(frame)+els(frame))
			})
		}
	}
	return func(frame []int) float64 {
		total := 0.0
		for _, add := range adds {
			total = add(frame, total)
		}
		return total
	}
}
