package loopir

import (
	"fmt"
	"sort"
)

// This file is the affine index lowering the kernel compiler (kernel.go)
// builds on: integer linear forms over a register file of loop variables,
// and the translation of IExpr subscripts and bounds into them. Non-affine
// index expressions are rejected here, which is how CompileKernel refuses a
// body and the caller falls back to the tree-walking interpreter.

// linTerm is one coefficient of a linear form.
type linTerm struct {
	reg  int
	coef int
}

// lin is an integer linear form c + Σ coef·reg over loop-variable registers.
type lin struct {
	c     int
	terms []linTerm
}

func (l lin) eval(regs []int) int {
	v := l.c
	for _, t := range l.terms {
		v += t.coef * regs[t.reg]
	}
	return v
}

func (l lin) add(m lin) lin {
	out := lin{c: l.c + m.c}
	coefs := map[int]int{}
	for _, t := range l.terms {
		coefs[t.reg] += t.coef
	}
	for _, t := range m.terms {
		coefs[t.reg] += t.coef
	}
	regs := make([]int, 0, len(coefs))
	for r := range coefs {
		regs = append(regs, r)
	}
	sort.Ints(regs)
	for _, r := range regs {
		if coefs[r] != 0 {
			out.terms = append(out.terms, linTerm{r, coefs[r]})
		}
	}
	return out
}

func (l lin) scale(k int) lin {
	out := lin{c: l.c * k}
	if k == 0 {
		return out
	}
	for _, t := range l.terms {
		out.terms = append(out.terms, linTerm{t.reg, t.coef * k})
	}
	return out
}

func (l lin) isConst() (int, bool) {
	if len(l.terms) == 0 {
		return l.c, true
	}
	return 0, false
}

// lowerer assigns registers to loop variables and free variables and
// lowers index expressions against one instance's parameters.
type lowerer struct {
	in       *Instance
	regIndex map[string]int
	nregs    int
}

func (lw *lowerer) regFor(name string) int {
	if r, ok := lw.regIndex[name]; ok {
		return r
	}
	r := lw.nregs
	lw.regIndex[name] = r
	lw.nregs++
	return r
}

func (lw *lowerer) lowerIndex(e IExpr) (lin, error) {
	switch e := e.(type) {
	case ICon:
		return lin{c: int(e)}, nil
	case IVar:
		if v, ok := lw.in.Params[string(e)]; ok {
			return lin{c: v}, nil
		}
		return lin{terms: []linTerm{{lw.regFor(string(e)), 1}}}, nil
	case IBin:
		l, err := lw.lowerIndex(e.L)
		if err != nil {
			return lin{}, err
		}
		r, err := lw.lowerIndex(e.R)
		if err != nil {
			return lin{}, err
		}
		switch e.Op {
		case '+':
			return l.add(r), nil
		case '-':
			return l.add(r.scale(-1)), nil
		case '*':
			if k, ok := l.isConst(); ok {
				return r.scale(k), nil
			}
			if k, ok := r.isConst(); ok {
				return l.scale(k), nil
			}
			return lin{}, fmt.Errorf("non-affine subscript: %s", e.String())
		}
		return lin{}, fmt.Errorf("bad index op %q", string(e.Op))
	}
	return lin{}, fmt.Errorf("unknown index expression %T", e)
}

// Code is a compiled whole program. Code and Lower are a shim over
// CompileKernel kept for one caller: the frozen benchmark/probes.go times
// in.Lower() then code.Run() as its loopir.closure_mflops row. Nothing else
// may call them; they go when that probe does.
type Code struct{ k *Kernel }

// Run executes the compiled program.
func (c *Code) Run() { c.k.Run(nil) }

// Lower compiles the whole program body; see Code.
func (in *Instance) Lower() (*Code, error) {
	k, err := in.CompileKernel(in.Prog.Body)
	if err != nil {
		return nil, err
	}
	return &Code{k: k}, nil
}
