package loopir

import (
	"fmt"
	"sync"
)

// This file is the kernel compiler: it specializes a statement tree into a
// form the runtime can execute at close to memory speed. It is the one
// in-process executor of affine code; the tree-walking interpreter (eval.go)
// stays as the semantic reference and the non-affine fallback.
//
// What makes a kernel fast:
//
//   - Affine flat offsets are precomputed per array reference ("sites"):
//     at loop entry each site's offset is evaluated once and then advanced
//     by a constant stride per iteration (strength reduction), so no
//     per-element linear-form evaluation happens.
//   - Loop variables live in a flat []int register file; free variables are
//     bound once per Run call, never through a map in the inner loop.
//   - Bounds checks are hoisted to loop entry: an affine offset over a
//     counted range is monotonic in the loop variable, so checking the two
//     endpoint offsets covers every iteration. Only references under an If
//     (which may never execute) or inside a data-dependent BreakIf loop
//     (which may exit early) keep a per-access check.
//   - Expressions run on a tiny postfix stack machine with no error path;
//     malformed programs are rejected at compile time instead.

// Opcode kinds of the expression stack machine.
const (
	opConst = iota
	opLoad
	opAdd
	opSub
	opMul
	opDiv
)

// Comparison kinds (conditions and break tests).
const (
	cmpLT = iota
	cmpLE
	cmpGT
	cmpGE
	cmpEQ
	cmpNE
)

// kop is one postfix instruction.
type kop struct {
	kind byte
	site int32   // opLoad: site index
	c    float64 // opConst
}

// ksite is one array-reference site: a flat affine offset into one array's
// storage, advanced incrementally by its owning loop.
type ksite struct {
	data  []float64
	name  string
	flat  lin
	check bool // per-access bounds check (conditional code); else hoisted
}

// kprep initializes a site at its owning loop's entry.
type kprep struct {
	site  int32
	step  int // per-iteration offset increment (coefficient of the loop reg)
	hoist bool
}

// kadv advances a site's offset per iteration (preps with step != 0).
type kadv struct {
	site int32
	step int
}

// kexec is the per-call execution state of a kernel. Every iteration
// writes its registers, site offsets and stack (and the stack's header
// here), and the slaves of one process run their kernels concurrently:
// the pads, and isolated for the backing arrays, keep that state off any
// cache line the allocator also hands to another slave's. Without them
// the placement is a matter of which P allocated when, and two mm kernels
// whose state lands on one line run up to 6x slower for as long as it does.
type kexec struct {
	_     [cacheLine]byte
	regs  []int
	offs  []int
	stack []float64
	_     [cacheLine]byte
}

const cacheLine = 64

// isolated returns a zeroed slice of n words with a cache line of unused
// words on either side of it.
func isolated[T int | float64](n int) []T {
	const pad = cacheLine / 8
	return make([]T, pad+n+pad)[pad : pad+n : pad+n]
}

// kinstr is one compiled statement.
type kinstr interface {
	run(k *Kernel, x *kexec)
}

type kloop struct {
	reg    int
	lo, hi lin
	preps  []kprep
	advs   []kadv
	body   []kinstr
	brk    *kcond
}

func (l *kloop) run(k *Kernel, x *kexec) {
	lo, hi := l.lo.eval(x.regs), l.hi.eval(x.regs)
	if hi <= lo {
		return
	}
	x.regs[l.reg] = lo
	k.initPreps(l.preps, hi-lo, x)
	for v := lo; ; {
		for _, ins := range l.body {
			ins.run(k, x)
		}
		if l.brk != nil && l.brk.eval(k, x) {
			return
		}
		v++
		if v >= hi {
			return
		}
		x.regs[l.reg] = v
		for _, a := range l.advs {
			x.offs[a.site] += a.step
		}
	}
}

type kassign struct {
	dst  int32
	code []kop
}

func (a *kassign) run(k *Kernel, x *kexec) {
	v := k.eval(a.code, x)
	s := &k.sites[a.dst]
	off := x.offs[a.dst]
	if s.check && uint(off) >= uint(len(s.data)) {
		panic(fmt.Sprintf("loopir: kernel store to %q out of range: %d not in [0,%d)", s.name, off, len(s.data)))
	}
	s.data[off] = v
}

type kcond struct {
	l, r []kop
	op   byte
}

func (c *kcond) eval(k *Kernel, x *kexec) bool {
	lv := k.eval(c.l, x)
	rv := k.eval(c.r, x)
	switch c.op {
	case cmpLT:
		return lv < rv
	case cmpLE:
		return lv <= rv
	case cmpGT:
		return lv > rv
	case cmpGE:
		return lv >= rv
	case cmpEQ:
		return lv == rv
	default:
		return lv != rv
	}
}

type kif struct {
	cond      kcond
	then, els []kinstr
}

func (f *kif) run(k *Kernel, x *kexec) {
	body := f.els
	if f.cond.eval(k, x) {
		body = f.then
	}
	for _, ins := range body {
		ins.run(k, x)
	}
}

// Kernel is a compiled statement list. It is immutable after compilation
// and safe for concurrent Run calls: all mutable state lives in per-call
// kexec records drawn from a pool.
type Kernel struct {
	code      []kinstr
	sites     []ksite
	rootPreps []kprep
	regIndex  map[string]int
	nregs     int
	depth     int
	pool      sync.Pool
}

func (k *Kernel) getExec() *kexec {
	if v := k.pool.Get(); v != nil {
		x := v.(*kexec)
		for i := range x.regs {
			x.regs[i] = 0
		}
		return x
	}
	return &kexec{
		regs:  isolated[int](k.nregs),
		offs:  isolated[int](len(k.sites)),
		stack: isolated[float64](k.depth)[:0],
	}
}

func (k *Kernel) putExec(x *kexec) { k.pool.Put(x) }

func (k *Kernel) applyBind(x *kexec, bind map[string]int) {
	for name, v := range bind {
		if r, ok := k.regIndex[name]; ok {
			x.regs[r] = v
		}
	}
}

// initPreps evaluates each site's start offset for a loop executing trip
// iterations and performs the hoisted range check: affine offsets are
// monotonic in the loop variable, so the two endpoint offsets bound every
// access of the loop.
func (k *Kernel) initPreps(preps []kprep, trip int, x *kexec) {
	for i := range preps {
		p := &preps[i]
		s := &k.sites[p.site]
		off := s.flat.eval(x.regs)
		x.offs[p.site] = off
		if p.hoist {
			mn, mx := off, off+p.step*(trip-1)
			if mn > mx {
				mn, mx = mx, mn
			}
			if mn < 0 || mx >= len(s.data) {
				panic(fmt.Sprintf("loopir: kernel access to %q out of range: [%d,%d] not in [0,%d)",
					s.name, mn, mx, len(s.data)))
			}
		}
	}
}

// eval runs one postfix program and returns its value.
func (k *Kernel) eval(code []kop, x *kexec) float64 {
	st := x.stack
	for i := range code {
		op := &code[i]
		switch op.kind {
		case opConst:
			st = append(st, op.c)
		case opLoad:
			s := &k.sites[op.site]
			off := x.offs[op.site]
			if s.check && uint(off) >= uint(len(s.data)) {
				panic(fmt.Sprintf("loopir: kernel load from %q out of range: %d not in [0,%d)", s.name, off, len(s.data)))
			}
			st = append(st, s.data[off])
		case opAdd:
			n := len(st) - 1
			st[n-1] += st[n]
			st = st[:n]
		case opSub:
			n := len(st) - 1
			st[n-1] -= st[n]
			st = st[:n]
		case opMul:
			n := len(st) - 1
			st[n-1] *= st[n]
			st = st[:n]
		default: // opDiv
			n := len(st) - 1
			st[n-1] /= st[n]
			st = st[:n]
		}
	}
	v := st[len(st)-1]
	x.stack = st[:0]
	return v
}

func (k *Kernel) exec(x *kexec) {
	k.initPreps(k.rootPreps, 1, x)
	for _, ins := range k.code {
		ins.run(k, x)
	}
}

// Run executes the kernel. bind supplies values for free variables (loop
// variables of enclosing scopes not bound inside the kernel); unbound
// registers are zero. Safe for concurrent callers.
func (k *Kernel) Run(bind map[string]int) {
	x := k.getExec()
	k.applyBind(x, bind)
	k.exec(x)
	k.putExec(x)
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

// klevel is the compile-time context of one loop nesting level.
type klevel struct {
	reg      int // -1 at the root
	canHoist bool
	preps    []kprep
	advs     []kadv
	siteOf   map[string]int32
	prepIdx  map[int32]int
}

func newLevel(reg int, canHoist bool) *klevel {
	return &klevel{reg: reg, canHoist: canHoist, siteOf: map[string]int32{}, prepIdx: map[int32]int{}}
}

type kcompiler struct {
	lw       *lowerer
	sites    []ksite
	depth    int
	internal map[int]bool // registers bound by loops inside the kernel
}

func linKey(l lin) string {
	key := fmt.Sprintf("%d", l.c)
	for _, t := range l.terms {
		key += fmt.Sprintf("|%d*r%d", t.coef, t.reg)
	}
	return key
}

func linCoef(l lin, reg int) int {
	if reg < 0 {
		return 0
	}
	for _, t := range l.terms {
		if t.reg == reg {
			return t.coef
		}
	}
	return 0
}

// addSite interns one (array, flat offset) reference at its owning level.
// conditional references (under an If, or in a loop that can break early)
// keep per-access checks; unconditional ones get the hoisted entry check.
func (kc *kcompiler) addSite(arr *Array, flat lin, lvl *klevel, conditional bool) int32 {
	key := arr.Name + "|" + linKey(flat)
	hoist := !conditional && lvl.canHoist
	if id, ok := lvl.siteOf[key]; ok {
		if hoist && kc.sites[id].check {
			kc.sites[id].check = false
			lvl.preps[lvl.prepIdx[id]].hoist = true
		}
		return id
	}
	id := int32(len(kc.sites))
	kc.sites = append(kc.sites, ksite{data: arr.Data, name: arr.Name, flat: flat, check: !hoist})
	step := linCoef(flat, lvl.reg)
	lvl.siteOf[key] = id
	lvl.prepIdx[id] = len(lvl.preps)
	lvl.preps = append(lvl.preps, kprep{site: id, step: step, hoist: hoist})
	if step != 0 {
		lvl.advs = append(lvl.advs, kadv{site: id, step: step})
	}
	return id
}

func (kc *kcompiler) lowerRef(r Ref) (*Array, lin, error) {
	arr, ok := kc.lw.in.Arrays[r.Array]
	if !ok {
		return nil, lin{}, fmt.Errorf("unknown array %q", r.Array)
	}
	flat := lin{}
	for d, ie := range r.Idx {
		l, err := kc.lw.lowerIndex(ie)
		if err != nil {
			return nil, lin{}, err
		}
		flat = flat.add(l.scale(arr.Stride[d]))
	}
	return arr, flat, nil
}

// compileExpr appends postfix code for e and returns the updated code and
// the expression's stack depth.
func (kc *kcompiler) compileExpr(e Expr, lvl *klevel, conditional bool, code []kop) ([]kop, int, error) {
	switch e := e.(type) {
	case Const:
		return append(code, kop{kind: opConst, c: float64(e)}), 1, nil
	case Ref:
		arr, flat, err := kc.lowerRef(e)
		if err != nil {
			return nil, 0, err
		}
		site := kc.addSite(arr, flat, lvl, conditional)
		return append(code, kop{kind: opLoad, site: site}), 1, nil
	case Bin:
		code, dl, err := kc.compileExpr(e.L, lvl, conditional, code)
		if err != nil {
			return nil, 0, err
		}
		code, dr, err := kc.compileExpr(e.R, lvl, conditional, code)
		if err != nil {
			return nil, 0, err
		}
		var kind byte
		switch e.Op {
		case '+':
			kind = opAdd
		case '-':
			kind = opSub
		case '*':
			kind = opMul
		case '/':
			kind = opDiv
		default:
			return nil, 0, fmt.Errorf("bad arithmetic op %q", string(e.Op))
		}
		depth := dl
		if dr+1 > depth {
			depth = dr + 1
		}
		return append(code, kop{kind: kind}), depth, nil
	}
	return nil, 0, fmt.Errorf("unknown expression %T", e)
}

func (kc *kcompiler) compileCond(c Cond, lvl *klevel, conditional bool) (kcond, error) {
	l, dl, err := kc.compileExpr(c.L, lvl, conditional, nil)
	if err != nil {
		return kcond{}, err
	}
	r, dr, err := kc.compileExpr(c.R, lvl, conditional, nil)
	if err != nil {
		return kcond{}, err
	}
	if dl > kc.depth {
		kc.depth = dl
	}
	if dr > kc.depth {
		kc.depth = dr
	}
	var op byte
	switch c.Op {
	case "<":
		op = cmpLT
	case "<=":
		op = cmpLE
	case ">":
		op = cmpGT
	case ">=":
		op = cmpGE
	case "==":
		op = cmpEQ
	case "!=":
		op = cmpNE
	default:
		return kcond{}, fmt.Errorf("bad comparison op %q", c.Op)
	}
	return kcond{l: l, r: r, op: op}, nil
}

func (kc *kcompiler) compileAssign(s *Assign, lvl *klevel, conditional bool) (*kassign, error) {
	arr, flat, err := kc.lowerRef(s.LHS)
	if err != nil {
		return nil, err
	}
	dst := kc.addSite(arr, flat, lvl, conditional)
	code, d, err := kc.compileExpr(s.RHS, lvl, conditional, nil)
	if err != nil {
		return nil, err
	}
	if d > kc.depth {
		kc.depth = d
	}
	return &kassign{dst: dst, code: code}, nil
}

func (kc *kcompiler) compileStmts(stmts []Stmt, lvl *klevel, conditional bool) ([]kinstr, error) {
	var out []kinstr
	for _, s := range stmts {
		switch s := s.(type) {
		case *Loop:
			lo, err := kc.lw.lowerIndex(s.Lo)
			if err != nil {
				return nil, err
			}
			hi, err := kc.lw.lowerIndex(s.Hi)
			if err != nil {
				return nil, err
			}
			reg := kc.lw.regFor(s.Var)
			kc.internal[reg] = true
			inner := newLevel(reg, s.BreakIf == nil)
			body, err := kc.compileStmts(s.Body, inner, false)
			if err != nil {
				return nil, err
			}
			l := &kloop{reg: reg, lo: lo, hi: hi, body: body}
			if s.BreakIf != nil {
				brk, err := kc.compileCond(*s.BreakIf, inner, false)
				if err != nil {
					return nil, err
				}
				l.brk = &brk
			}
			l.preps, l.advs = inner.preps, inner.advs
			out = append(out, l)
		case *Assign:
			a, err := kc.compileAssign(s, lvl, conditional)
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		case *If:
			cond, err := kc.compileCond(s.Cond, lvl, conditional)
			if err != nil {
				return nil, err
			}
			then, err := kc.compileStmts(s.Then, lvl, true)
			if err != nil {
				return nil, err
			}
			els, err := kc.compileStmts(s.Else, lvl, true)
			if err != nil {
				return nil, err
			}
			out = append(out, &kif{cond: cond, then: then, els: els})
		default:
			return nil, fmt.Errorf("unknown statement %T", s)
		}
	}
	return out, nil
}

func (in *Instance) compileKernel(stmts []Stmt) (*Kernel, *kcompiler, error) {
	kc := &kcompiler{lw: &lowerer{in: in, regIndex: map[string]int{}}, internal: map[int]bool{}}
	root := newLevel(-1, true)
	code, err := kc.compileStmts(stmts, root, false)
	if err != nil {
		return nil, nil, err
	}
	k := &Kernel{
		code:      code,
		sites:     kc.sites,
		rootPreps: root.preps,
		regIndex:  kc.lw.regIndex,
		nregs:     kc.lw.nregs,
		depth:     kc.depth + 1,
	}
	return k, kc, nil
}

// CompileKernel compiles a statement list against this instance's arrays.
// Variables that are neither parameters nor bound by loops inside the
// statement list become free variables, set per call via Run's bind map.
// It fails for programs with non-affine subscripts (use the interpreter).
func (in *Instance) CompileKernel(stmts []Stmt) (*Kernel, error) {
	k, _, err := in.compileKernel(stmts)
	return k, err
}

// RunKernel compiles the whole program body to a kernel and executes it.
func (in *Instance) RunKernel() error {
	k, err := in.CompileKernel(in.Prog.Body)
	if err != nil {
		return err
	}
	k.Run(nil)
	return nil
}

// Free variables carrying the executed range into a RangeKernel.
const (
	kernelLoVar = "__klo"
	kernelHiVar = "__khi"
)

// RangeKernel is a compiled distributed loop `for v in [lo,hi) { body }`
// whose range is supplied per call.
type RangeKernel struct {
	k     *Kernel
	loReg int
	hiReg int
}

// compileRange compiles `for distVar in [lo,hi) { body }` with the range
// bounds as free variables; the VM range kernel and the Go emitter share it.
func (in *Instance) compileRange(distVar string, body []Stmt) (*RangeKernel, *kcompiler, error) {
	wrapped := []Stmt{For(distVar, Iv(kernelLoVar), Iv(kernelHiVar), body...)}
	k, kc, err := in.compileKernel(wrapped)
	if err != nil {
		return nil, nil, err
	}
	return &RangeKernel{k: k, loReg: k.regIndex[kernelLoVar], hiReg: k.regIndex[kernelHiVar]}, kc, nil
}

// CompileRangeKernel compiles body as a distributed-range kernel over
// distVar.
func (in *Instance) CompileRangeKernel(distVar string, body []Stmt) (*RangeKernel, error) {
	rk, _, err := in.compileRange(distVar, body)
	return rk, err
}

// Run executes iterations [lo,hi).
func (rk *RangeKernel) Run(lo, hi int, bind map[string]int) {
	k := rk.k
	x := k.getExec()
	k.applyBind(x, bind)
	x.regs[rk.loReg], x.regs[rk.hiReg] = lo, hi
	k.exec(x)
	k.putExec(x)
}
