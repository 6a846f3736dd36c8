package loopir

import (
	"fmt"
	"slices"
	"sort"
)

// Term is one variable's coefficient in an affine form.
type Term struct {
	Var  string
	Coef int
}

// Affine is an index expression decomposed as Const + Σ Coef·Var. Terms
// keep the order in which their variables first appear, and a variable
// whose coefficient cancels to zero has no term.
type Affine struct {
	Const int
	Terms []Term
}

// AffineOf decomposes e, the one place that decides which index
// expressions are affine. A variable found in known folds to its value;
// every other variable stays a term. The dependence analysis and the
// compiler pass nil, the kernel compiler the instance's parameters. It
// handles +, - and * when one side is constant; anything else (a variable
// times a variable, an IArr index read) is a non-affine error.
func AffineOf(e IExpr, known map[string]int) (Affine, error) {
	switch e := e.(type) {
	case ICon:
		return Affine{Const: int(e)}, nil
	case IVar:
		if v, ok := known[string(e)]; ok {
			return Affine{Const: v}, nil
		}
		return Affine{Terms: []Term{{Var: string(e), Coef: 1}}}, nil
	case IBin:
		l, err := AffineOf(e.L, known)
		if err != nil {
			return Affine{}, err
		}
		r, err := AffineOf(e.R, known)
		if err != nil {
			return Affine{}, err
		}
		switch e.Op {
		case '+':
			return l.addScaled(r, 1), nil
		case '-':
			return l.addScaled(r, -1), nil
		case '*':
			if len(l.Terms) == 0 {
				return Affine{}.addScaled(r, l.Const), nil
			}
			if len(r.Terms) == 0 {
				return Affine{}.addScaled(l, r.Const), nil
			}
		default:
			return Affine{}, fmt.Errorf("bad index op %q", string(e.Op))
		}
	}
	return Affine{}, fmt.Errorf("non-affine subscript: %s", e.String())
}

// decompose is the one lowering of an index expression, for the kernel
// compiler and the frame alike. AffineOf decides first; a sum or
// difference it refuses is decomposed part by part, and each part it still
// refuses goes to derive, which names a fresh variable standing for the
// part's value: a product of two non-constant forms (l, r, its decomposed
// factors) or an index-array read (l, r zero). A zero factor derives a
// product too, so the reads it would cancel stay checked.
func decompose(e IExpr, known map[string]int, derive func(e IExpr, l, r Affine) (string, error)) (Affine, error) {
	if a, err := AffineOf(e, known); err == nil {
		return a, nil
	}
	var l, r Affine
	switch e := e.(type) {
	case IBin:
		var err error
		if l, err = decompose(e.L, known, derive); err != nil {
			return Affine{}, err
		}
		if r, err = decompose(e.R, known, derive); err != nil {
			return Affine{}, err
		}
		switch {
		case e.Op == '+':
			return l.addScaled(r, 1), nil
		case e.Op == '-':
			return l.addScaled(r, -1), nil
		case e.Op != '*':
			return Affine{}, fmt.Errorf("bad index op %q", string(e.Op))
		case len(l.Terms) == 0 && l.Const != 0:
			return Affine{}.addScaled(r, l.Const), nil
		case len(r.Terms) == 0 && r.Const != 0:
			return Affine{}.addScaled(l, r.Const), nil
		}
	case IArr:
	default:
		return Affine{}, fmt.Errorf("unknown index expression %T", e)
	}
	name, err := derive(e, l, r)
	if err != nil {
		return Affine{}, err
	}
	return Affine{Terms: []Term{{Var: name, Coef: 1}}}, nil
}

// addScaled returns a + k·b: a's terms keep their places and b's new
// variables follow in b's order; a term that cancels is dropped.
func (a Affine) addScaled(b Affine, k int) Affine {
	out := Affine{Const: a.Const + k*b.Const, Terms: slices.Clone(a.Terms)}
	for _, t := range b.Terms {
		if i := slices.IndexFunc(out.Terms, func(u Term) bool { return u.Var == t.Var }); i >= 0 {
			out.Terms[i].Coef += k * t.Coef
		} else {
			out.Terms = append(out.Terms, Term{Var: t.Var, Coef: k * t.Coef})
		}
	}
	out.Terms = slices.DeleteFunc(out.Terms, func(t Term) bool { return t.Coef == 0 })
	return out
}

// Coef returns v's coefficient (0 when v has no term).
func (a Affine) Coef(v string) int {
	for _, t := range a.Terms {
		if t.Var == v {
			return t.Coef
		}
	}
	return 0
}

// Offset reports whether the form is exactly v + delta.
func (a Affine) Offset(v string) (delta int, ok bool) {
	if len(a.Terms) == 1 && a.Terms[0] == (Term{Var: v, Coef: 1}) {
		return a.Const, true
	}
	return 0, false
}

// ival is an integer range [lo, hi] for the kernel compiler's bounds
// proof; the zero value, !ok, is unknown.
type ival struct {
	lo, hi int
	ok     bool
}

// rangeOf is the range of a when each variable v ranges over of[v],
// unknown if any variable's range is.
func (a Affine) rangeOf(of map[string]ival) ival {
	r := ival{a.Const, a.Const, true}
	for _, t := range a.Terms {
		v := of[t.Var]
		if !v.ok {
			return v
		}
		lo, hi := t.Coef*v.lo, t.Coef*v.hi
		r.lo, r.hi = r.lo+min(lo, hi), r.hi+max(lo, hi)
	}
	return r
}

// loopRange is the range of a loop variable over [lo, hi): [min lo,
// max hi − 1], unknown for a loop that never runs.
func loopRange(lo, hi Affine, of map[string]ival) ival {
	l, h := lo.rangeOf(of), hi.rangeOf(of)
	return ival{l.lo, h.hi - 1, l.ok && h.ok && l.lo < h.hi}
}

// hulls gives each loop variable of the program its hull: the union, over
// every loop of that name, of its loopRange with the enclosing loops at
// theirs (cur: no loop shadows another, so the last loop of a name the
// walk met is the enclosing one). A bound AffineOf refuses, an
// index-array read, leaves the name's hull unknown.
func (in *Instance) hulls() map[string]ival {
	cur, out := map[string]ival{}, map[string]ival{}
	Walk(in.Prog.Body, func(s Stmt, _ []*Loop) error {
		l, ok := s.(*Loop)
		if !ok {
			return nil
		}
		lo, err1 := AffineOf(l.Lo, in.Params)
		hi, err2 := AffineOf(l.Hi, in.Params)
		r := loopRange(lo, hi, cur)
		r.ok = r.ok && err1 == nil && err2 == nil
		cur[l.Var] = r
		if h, seen := out[l.Var]; seen {
			r = ival{min(h.lo, r.lo), max(h.hi, r.hi), h.ok && r.ok}
		}
		out[l.Var] = r
		return nil
	})
	return out
}

// lin is the register form of an affine form, the one the VM and the Go
// emitter execute: c + Σ coef·reg over the kernel's register file, terms
// sorted by register.
type lin struct {
	c     int
	terms []linTerm
}

type linTerm struct{ reg, coef int }

func (l lin) eval(regs []int) int {
	v := l.c
	for _, t := range l.terms {
		v += t.coef * regs[t.reg]
	}
	return v
}

// coef returns reg's coefficient (0 when reg has no term).
func (l lin) coef(reg int) int {
	for _, t := range l.terms {
		if t.reg == reg {
			return t.coef
		}
	}
	return 0
}

// regFor returns name's register, assigning the next free one on first use.
func (kc *kcompiler) regFor(name string) int {
	if r, ok := kc.regIndex[name]; ok {
		return r
	}
	r := kc.nregs
	kc.regIndex[name] = r
	kc.nregs++
	return r
}

// lin converts an affine form to register form: registers are assigned in
// term order, then the terms are sorted by register. A loop of the kernel
// takes its register before its body converts anything, so a variable
// first met here is free; the proof takes its hull on trust, and each call
// checks it.
func (kc *kcompiler) lin(a Affine) lin {
	out := lin{c: a.Const}
	for _, t := range a.Terms {
		_, seen := kc.regIndex[t.Var]
		r := kc.regFor(t.Var)
		if h := kc.hulls[t.Var]; !seen && h.ok {
			kc.free = append(kc.free, hullCheck(r, t.Var, h, 0))
		}
		out.terms = append(out.terms, linTerm{r, t.Coef})
	}
	sort.Slice(out.terms, func(i, j int) bool { return out.terms[i].reg < out.terms[j].reg })
	return out
}
