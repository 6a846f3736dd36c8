package loopir

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
)

// This file is the kernel compiler: it specializes a statement tree into a
// form the runtime can execute at close to memory speed. It is the one
// in-process executor of every program Validate accepts; the tree-walking
// interpreter (eval.go) stays as the semantic reference.
//
// What makes a kernel fast:
//
//   - Affine flat offsets are precomputed per array reference ("sites"):
//     at loop entry each site's offset is evaluated once and then advanced
//     by a constant stride per iteration (strength reduction), so no
//     per-element linear-form evaluation happens.
//   - Loop variables live in a flat []int register file; free variables are
//     copied in from the run's integer frame (Frame) once per Run call.
//   - One bounds rule. When a kernel is compiled, interval arithmetic over
//     the loop bounds either proves a subscript in [0, dim) for every
//     iteration, and it carries no check, or it does not, and it is checked
//     against its own dimension (kdim): at loop entry, over the loop's
//     range, when its site runs on every iteration (an affine subscript is
//     monotonic in the loop variable, so the two endpoints bound it); at
//     every access otherwise, under an If or in a BreakIf loop, as a
//     derived site. Free registers, and a range kernel's [lo, hi), take
//     their loop's program-wide hull and are checked against it once per
//     call, which makes the proof sound for any caller.
//   - What AffineOf refuses (an index-array read, a product of two
//     non-constant forms) becomes a derived register that a kderive sets
//     just before its statement; the subscripts that read one are never
//     proven.
//   - Expressions run on a tiny postfix stack machine with no error path;
//     malformed programs are rejected at compile time instead.
//   - Innermost loops run a strip at a time where that is exact: each op
//     of the same postfix code fills or combines a 128-wide slot of the
//     strip buffer, so dispatch, the interface call and stack traffic are
//     paid per strip, not per iteration (kstrip). A strip never holds a
//     load of what an earlier iteration of it stores (pairWidth), and the
//     store writes the strip in iteration order, so every element sees the
//     scalar loop's IEEE operations in the scalar loop's order.
//   - A recurrence runs a strip at a time too when one load blocks it: the
//     load of what the previous iteration stored, one step behind the
//     store (sor's b[j-1][i]; at step 0 the stored element itself, mm's
//     reduction into c[i][j]), made once. Every operand off its path to the
//     root fills its own slot over the strip; then one serial loop walks
//     the strip, applies the path's ops innermost first to the carried
//     value and stores each result, so only the carried chain runs an
//     iteration at a time, in the scalar loop's order.

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
// storage, set at its owning loop's entry (or by a kderive) and advanced
// incrementally by that loop.
type ksite struct {
	data []float64
	name string
	flat lin
	step int // per-iteration offset increment in its owning loop
}

// kdim is one runtime bounds check, made over a loop's trip at its entry
// (or once, trip 1): at + step·t for t in [0, trip) must lie in [0, n). It
// checks one subscript of an array against its dimension, or one register
// v against its hull [base, base+n) as v − base; msg names which.
type kdim struct {
	at            lin
	step, n, base int
	msg           string
}

func (d *kdim) check(regs []int, trip int) {
	if mn, mx := span(d.at.eval(regs), d.step, trip); mn < 0 || mx >= d.n {
		panic(fmt.Sprintf("loopir: kernel %s: [%d,%d]", d.msg, mn+d.base, mx+d.base))
	}
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
	strip []float64 // depth slots of stripW words
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
	checks []kdim  // made at entry, over the trip
	preps  []int32 // sites whose offsets are set at entry
	advs   []kadv
	body   []kinstr
	brk    *kcond
	strip  *kstrip // nil: the loop always runs scalar
}

func (l *kloop) run(k *Kernel, x *kexec) {
	lo, hi := l.lo.eval(x.regs), l.hi.eval(x.regs)
	if hi <= lo {
		return
	}
	x.regs[l.reg] = lo
	k.enter(l.checks, l.preps, hi-lo, x)
	if l.strip != nil {
		if w := l.strip.widthAt(k, x, hi-lo); w > 1 {
			l.runStrips(k, x, hi-lo, w)
			return
		}
	}
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

// stripW is the widest strip an innermost loop runs at once.
const stripW = 128

// kstrip is an innermost loop's strip plan. The loop's body is one
// assignment, none of whose sites is derived; it runs w iterations at
// once, where w is the compile-time cap narrowed by the pairs only loop
// entry can decide. A plain strip evaluates the assignment's code over the
// strip. A carried strip (the code loads the element one step behind the
// store once: the previous iteration's, or at step 0 the stored element
// itself) evaluates each operand off the carried load's path over the
// strip and applies the path serially.
type kstrip struct {
	a       *kassign
	width   int     // cap from the pairs decided at compile time; > 1
	pairs   []int32 // load sites on the stored array whose distance is known only at entry
	carried bool    // a recurrence: one load reads what the previous iteration stored
	path    []kpath // carried: the ops from the carried load to the root, innermost first
}

// kpath is one op on a carried strip's path. Its other operand, sib, fills
// strip slot i for path op i.
type kpath struct {
	kind byte
	left bool // the carried value is the op's left operand
	sib  []kop
}

// widthAt is the strip width for one entry of the loop: the compile-time
// cap narrowed by each entry-checked pair. 1 runs the scalar loop.
func (s *kstrip) widthAt(k *Kernel, x *kexec, trip int) int {
	w := s.width
	oD, sD := x.offs[s.a.dst], k.sites[s.a.dst].step
	for _, p := range s.pairs {
		w = min(w, pairWidth(x.offs[p]-oD, sD, k.sites[p].step, trip))
	}
	return w
}

// pairWidth is the widest strip at which a load may run ahead of the store
// of the same assignment: over iterations t in [0,trip) the store writes
// oD + sD·t and the load reads oD + d + sL·t. A strip is wrong exactly when
// an iteration loads what an earlier iteration of its own strip stored.
func pairWidth(d, sD, sL, trip int) int {
	switch {
	case sD == 0:
		// Every iteration stores to one address: no load after the first
		// may read it.
		if sL == 0 {
			if d == 0 && trip > 1 {
				return 1
			}
		} else if -d%sL == 0 && -d/sL >= 1 && -d/sL <= trip-1 {
			return 1
		}
	case sL == sD:
		// Iteration t loads what iteration t−q stored, q = −d/sD: a strip
		// narrower than q never holds both.
		if d%sD == 0 {
			if q := -d / sD; q >= 1 && q <= trip-1 {
				return min(stripW, q)
			}
		}
	default:
		// Unequal steps: batch only when the two address ranges over the
		// trip are disjoint.
		dlo, dhi := span(0, sD, trip)
		llo, lhi := span(d, sL, trip)
		if dlo <= lhi && llo <= dhi {
			return 1
		}
	}
	return stripW
}

// span is the address range of o + s·t over t in [0,trip).
func span(o, s, trip int) (lo, hi int) {
	lo, hi = o, o+s*(trip-1)
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

// runStrips runs the loop's trip iterations w at a time.
func (l *kloop) runStrips(k *Kernel, x *kexec, trip, w int) {
	for t := 0; t < trip; t += w {
		n := min(w, trip-t)
		l.strip.run(k, x, n)
		for _, a := range l.advs {
			x.offs[a.site] += a.step * n
		}
	}
}

type kassign struct {
	dst  int32
	code []kop
}

func (a *kassign) run(k *Kernel, x *kexec) {
	v := k.eval(a.code, x)
	k.sites[a.dst].data[x.offs[a.dst]] = v
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

// kderive sets a statement's derived registers and the offsets of its
// derived sites, in dependency order: before a loop for its bounds, before
// an assignment or an If, and last in a loop's body for its break condition.
type kderive []kref

// kref is one step of a kderive: a site whose offset is set at each
// execution, after the checks of the subscripts the proof left open. With
// reg >= 0 its element, truncated toward zero as EvalIndex truncates it,
// sets a derived register; with site -1 that register is the product
// l·r instead.
type kref struct {
	site   int32
	reg    int
	checks []kdim
	l, r   lin
}

func (d kderive) run(k *Kernel, x *kexec) {
	for i := range d {
		r := &d[i]
		if r.site < 0 {
			x.regs[r.reg] = r.l.eval(x.regs) * r.r.eval(x.regs)
			continue
		}
		for j := range r.checks {
			r.checks[j].check(x.regs, 1)
		}
		s := &k.sites[r.site]
		off := s.flat.eval(x.regs)
		if x.offs[r.site] = off; r.reg >= 0 {
			x.regs[r.reg] = int(s.data[off])
		}
	}
}

// Kernel is a compiled statement list. It is immutable after compilation
// and safe for concurrent Run calls: all mutable state lives in per-call
// kexec records drawn from a pool.
type Kernel struct {
	code       []kinstr
	sites      []ksite
	rootChecks []kdim // once per call: free registers against their hulls first
	rootPreps  []int32
	regIndex   map[string]int
	binds      []kfree // the free registers, which Run copies from the frame
	nregs      int
	depth      int // stack slots, and strip slots: a carried strip's path slots and the stacks above them
	pool       sync.Pool
}

// kfree is one free variable's frame slot and its register.
type kfree struct{ slot, reg int }

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
		strip: isolated[float64](k.depth * stripW),
	}
}

func (k *Kernel) putExec(x *kexec) { k.pool.Put(x) }

func (k *Kernel) bind(x *kexec, frame []int) {
	for _, f := range k.binds {
		x.regs[f.reg] = frame[f.slot]
	}
}

// enter makes a loop's entry checks over its trip iterations, then sets
// each of its sites' start offsets.
func (k *Kernel) enter(checks []kdim, preps []int32, trip int, x *kexec) {
	for i := range checks {
		checks[i].check(x.regs, trip)
	}
	for _, s := range preps {
		x.offs[s] = k.sites[s].flat.eval(x.regs)
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
			st = append(st, k.sites[op.site].data[x.offs[op.site]])
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

// run executes w iterations of the assignment from the current offsets.
func (s *kstrip) run(k *Kernel, x *kexec, w int) {
	if s.carried {
		s.runCarried(k, x, w)
		return
	}
	v := k.evalStrip(s.a.code, x, w, 0)
	d := &k.sites[s.a.dst]
	off := x.offs[s.a.dst]
	if d.step == 1 {
		copy(d.data[off:off+w], v)
		return
	}
	for _, e := range v {
		d.data[off] = e
		off += d.step
	}
}

// runCarried executes w iterations of a recurrence: each path op's other
// operand over the strip first, then the carried chain one iteration at a
// time. Iteration t's carried load reads what iteration t−1 stored, one
// step behind the store, so the chain keeps the stored value in v instead
// of reloading it. A step-0 store with a one-op path, a reduction, folds
// the strip into v and stores it once.
func (s *kstrip) runCarried(k *Kernel, x *kexec, w int) {
	for i := range s.path {
		k.evalStrip(s.path[i].sib, x, w, i)
	}
	path, buf := s.path, x.strip
	d := &k.sites[s.a.dst]
	data, step, off := d.data, d.step, x.offs[s.a.dst]
	v := data[off-step]
	if step == 0 && len(path) == 1 {
		data[off] = fold(path[0].kind, path[0].left, v, buf[:w])
		return
	}
	for t := 0; t < w; t++ {
		for i := range path {
			p := &path[i]
			e := buf[i*stripW+t]
			// + and × are commutative in IEEE arithmetic; − and ÷ keep v
			// on the side the scalar code has it.
			switch {
			case p.kind == opAdd:
				v += e
			case p.kind == opMul:
				v *= e
			case p.kind == opSub && p.left:
				v -= e
			case p.kind == opSub:
				v = e - v
			case p.left: // opDiv
				v /= e
			default:
				v = e / v
			}
		}
		data[off] = v
		off += step
	}
}

// fold applies op between acc and each v[t] in order, keeping acc on the
// side the scalar code has it: the left operand when left is set.
func fold(op byte, left bool, acc float64, v []float64) float64 {
	switch {
	case op == opAdd && left:
		for _, e := range v {
			acc = acc + e
		}
	case op == opAdd:
		for _, e := range v {
			acc = e + acc
		}
	case op == opSub && left:
		for _, e := range v {
			acc = acc - e
		}
	case op == opSub:
		for _, e := range v {
			acc = e - acc
		}
	case op == opMul && left:
		for _, e := range v {
			acc = acc * e
		}
	case op == opMul:
		for _, e := range v {
			acc = e * acc
		}
	case left: // opDiv
		for _, e := range v {
			acc = acc / e
		}
	default:
		for _, e := range v {
			acc = e / acc
		}
	}
	return acc
}

// evalStrip runs code over w iterations from the current offsets. Stack
// slot j is x.strip[j·stripW:][:w]; the stack starts at slot base, each op
// fills or combines whole slots, and the result is slot base.
func (k *Kernel) evalStrip(code []kop, x *kexec, w, base int) []float64 {
	buf := x.strip
	sp := base
	for i := range code {
		op := &code[i]
		switch op.kind {
		case opConst:
			out := buf[sp*stripW:][:w]
			for t := range out {
				out[t] = op.c
			}
			sp++
		case opLoad:
			out := buf[sp*stripW:][:w]
			s := &k.sites[op.site]
			off := x.offs[op.site]
			switch s.step {
			case 0:
				v := s.data[off]
				for t := range out {
					out[t] = v
				}
			case 1:
				copy(out, s.data[off:off+w])
			default:
				for t := range out {
					out[t] = s.data[off]
					off += s.step
				}
			}
			sp++
		default:
			sp--
			l := buf[(sp-1)*stripW:][:w]
			r := buf[sp*stripW:][:len(l)]
			switch op.kind {
			case opAdd:
				for t := range l {
					l[t] += r[t]
				}
			case opSub:
				for t := range l {
					l[t] -= r[t]
				}
			case opMul:
				for t := range l {
					l[t] *= r[t]
				}
			default: // opDiv
				for t := range l {
					l[t] /= r[t]
				}
			}
		}
	}
	return buf[base*stripW:][:w]
}

func (k *Kernel) exec(x *kexec) {
	k.enter(k.rootChecks, k.rootPreps, 1, x)
	for _, ins := range k.code {
		ins.run(k, x)
	}
}

// Run executes the kernel. frame holds the free variables (loop variables
// of enclosing scopes not bound inside the kernel) at their slots of the
// instance's Frame; a kernel with none takes nil. Safe for concurrent
// callers.
func (k *Kernel) Run(frame []int) {
	x := k.getExec()
	k.bind(x, frame)
	k.exec(x)
	k.putExec(x)
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

// klevel is the compile-time context of one loop nesting level.
type klevel struct {
	reg      int  // -1 at the root
	fullTrip bool // no BreakIf: an unconditional site runs on every iteration
	checks   []kdim
	preps    []int32
	advs     []kadv
	siteOf   map[string]int32
}

func newLevel(reg int, fullTrip bool) *klevel {
	return &klevel{reg: reg, fullTrip: fullTrip, siteOf: map[string]int32{}}
}

type kcompiler struct {
	in       *Instance
	regIndex map[string]int // variable -> register, in order of first use
	nregs    int
	sites    []ksite
	depth    int
	internal map[int]bool // registers bound by loops inside the kernel, and derived ones
	hulls    map[string]ival
	// ranges is each variable's range as the proof sees it: a loop of the
	// kernel's over its bounds, any other name (a free variable) over its
	// hull, a derived register unknown.
	ranges map[string]ival
	free   []kdim // each free variable with a hull, checked against it
}

// proven reports whether subscript a lies in [0, n) wherever it runs.
func (kc *kcompiler) proven(a Affine, n int) bool {
	r := a.rangeOf(kc.ranges)
	return r.ok && r.lo >= 0 && r.hi < n
}

// hullCheck checks register reg, of variable v, against v's hull h: as
// v − h.lo against the extent h.hi − h.lo + 1, over a loop's trip when
// step is 1, once when it is 0.
func hullCheck(reg int, v string, h ival, step int) kdim {
	return kdim{at: lin{c: -h.lo, terms: []linTerm{{reg, 1}}}, step: step, n: h.hi - h.lo + 1, base: h.lo,
		msg: fmt.Sprintf("variable %q out of range [%d,%d]", v, h.lo, h.hi)}
}

// addSite interns one (array, flat offset) reference at its owning level;
// each reference brings its entry checks to the level.
func (kc *kcompiler) addSite(arr *Array, flat lin, checks []kdim, lvl *klevel) int32 {
	lvl.checks = append(lvl.checks, checks...)
	key := fmt.Sprint(arr.Name, flat)
	if id, ok := lvl.siteOf[key]; ok {
		return id
	}
	id := int32(len(kc.sites))
	step := flat.coef(lvl.reg)
	kc.sites = append(kc.sites, ksite{data: arr.Data, name: arr.Name, flat: flat, step: step})
	lvl.siteOf[key] = id
	lvl.preps = append(lvl.preps, id)
	if step != 0 {
		lvl.advs = append(lvl.advs, kadv{site: id, step: step})
	}
	return id
}

// index decomposes an index expression (decompose): the parts AffineOf
// refuses become derived registers, which d sets.
func (kc *kcompiler) index(e IExpr, d *kderive) (Affine, error) {
	return decompose(e, kc.in.Params, func(e IExpr, l, r Affine) (string, error) {
		step := kref{site: -1, l: kc.lin(l), r: kc.lin(r)}
		if e, ok := e.(IArr); ok {
			arr, checks, flat, err := kc.lowerRef(e.Array, e.Idx, -1, d)
			if err != nil {
				return "", err
			}
			step = kc.derivedRef(arr, checks, flat)
		}
		name := fmt.Sprint("#", kc.nregs) // a fresh register no source variable names
		step.reg = kc.regFor(name)
		kc.internal[step.reg] = true
		*d = append(*d, step)
		return name, nil
	})
}

// lowerRef decomposes a reference's subscripts, deriving into d what
// AffineOf refuses, checks each one the proof leaves open over the loop of
// register reg, and lowers its flat offset: one affine form over all
// dimensions, Σ Stride[d]·Idx[d], converted once to register form.
func (kc *kcompiler) lowerRef(array string, idx []IExpr, reg int, d *kderive) (*Array, []kdim, lin, error) {
	arr, ok := kc.in.Arrays[array]
	if !ok {
		return nil, nil, lin{}, fmt.Errorf("unknown array %q", array)
	}
	var checks []kdim
	var flat Affine
	for i, ie := range idx {
		a, err := kc.index(ie, d)
		if err != nil {
			return nil, nil, lin{}, err
		}
		if flat = flat.addScaled(a, arr.Stride[i]); !kc.proven(a, arr.Dims[i]) {
			at := kc.lin(a)
			checks = append(checks, kdim{at: at, step: at.coef(reg), n: arr.Dims[i],
				msg: fmt.Sprintf("access to %q out of range [0,%d) in dim %d", array, arr.Dims[i], i)})
		}
	}
	return arr, checks, kc.lin(flat), nil
}

// derivedRef makes a site whose offset a kderive sets, after its checks,
// at each access.
func (kc *kcompiler) derivedRef(arr *Array, checks []kdim, flat lin) kref {
	kc.sites = append(kc.sites, ksite{data: arr.Data, name: arr.Name, flat: flat})
	return kref{site: int32(len(kc.sites) - 1), reg: -1, checks: checks}
}

// ref lowers a data reference to a site. A subscript the proof leaves open
// is checked at loop entry when the site runs on every iteration of its
// loop; otherwise, or when a subscript reads a derived register, the
// reference is a derived site: d sets its offset and checks it.
func (kc *kcompiler) ref(r Ref, lvl *klevel, conditional bool, d *kderive) (int32, error) {
	n := len(*d)
	arr, checks, flat, err := kc.lowerRef(r.Array, r.Idx, lvl.reg, d)
	if err != nil {
		return 0, err
	}
	if len(*d) > n || len(checks) > 0 && (conditional || !lvl.fullTrip) {
		*d = append(*d, kc.derivedRef(arr, checks, flat))
		return (*d)[len(*d)-1].site, nil
	}
	return kc.addSite(arr, flat, checks, lvl), nil
}

// compileExpr appends postfix code for e and returns the updated code and
// the expression's stack depth.
func (kc *kcompiler) compileExpr(e Expr, lvl *klevel, conditional bool, d *kderive, code []kop) ([]kop, int, error) {
	switch e := e.(type) {
	case Const:
		return append(code, kop{kind: opConst, c: float64(e)}), 1, nil
	case Ref:
		site, err := kc.ref(e, lvl, conditional, d)
		if err != nil {
			return nil, 0, err
		}
		return append(code, kop{kind: opLoad, site: site}), 1, nil
	case Bin:
		code, dl, err := kc.compileExpr(e.L, lvl, conditional, d, code)
		if err != nil {
			return nil, 0, err
		}
		code, dr, err := kc.compileExpr(e.R, lvl, conditional, d, code)
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
		return append(code, kop{kind: kind}), max(dl, dr+1), nil
	}
	return nil, 0, fmt.Errorf("unknown expression %T", e)
}

func (kc *kcompiler) compileCond(c Cond, lvl *klevel, conditional bool, d *kderive) (kcond, error) {
	l, dl, err := kc.compileExpr(c.L, lvl, conditional, d, nil)
	if err != nil {
		return kcond{}, err
	}
	r, dr, err := kc.compileExpr(c.R, lvl, conditional, d, nil)
	if err != nil {
		return kcond{}, err
	}
	kc.depth = max(kc.depth, dl, dr)
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

func (kc *kcompiler) compileAssign(s *Assign, lvl *klevel, conditional bool, d *kderive) (*kassign, error) {
	dst, err := kc.ref(s.LHS, lvl, conditional, d)
	if err != nil {
		return nil, err
	}
	code, depth, err := kc.compileExpr(s.RHS, lvl, conditional, d, nil)
	if err != nil {
		return nil, err
	}
	kc.depth = max(kc.depth, depth)
	return &kassign{dst: dst, code: code}, nil
}

// stripPlan decides whether the compiled loop l may run a strip at a time
// and returns its plan, or nil for a loop that always runs scalar: one
// with a BreakIf, a body other than one assignment (a derived site's
// kderive is a second instruction), or a load pair whose distance, known
// now, forbids any strip. A load one step behind the store (sor's
// b[j-1][i] against b[j][i]; at step 0, mm's c[i][j] itself) forbids none
// when the code loads it once: it becomes the strip's carried load.
func (kc *kcompiler) stripPlan(l *kloop) *kstrip {
	if l.brk != nil || len(l.body) != 1 {
		return nil
	}
	a, ok := l.body[0].(*kassign)
	if !ok {
		return nil
	}
	dst := &kc.sites[a.dst]
	st := &kstrip{a: a, width: stripW}
	var carry int32 // the carried load's site
	for _, op := range a.code {
		if op.kind != opLoad {
			continue
		}
		ld := &kc.sites[op.site]
		switch {
		case ld.name != dst.name:
			// Another array: no pair.
		case !slices.Equal(ld.flat.terms, dst.flat.terms):
			if !slices.Contains(st.pairs, op.site) {
				st.pairs = append(st.pairs, op.site)
			}
		case ld.flat.c-dst.flat.c == -dst.step && loadsOf(a.code, op.site) == 1:
			// Equal terms one step behind the store, loaded once: the
			// carried load, at q = 1, or at step 0 the stored element.
			st.carried, carry = true, op.site
		default:
			// Equal terms: d is a constant and the steps are equal, so
			// the pair is decided for every trip now.
			st.width = min(st.width, pairWidth(ld.flat.c-dst.flat.c, dst.step, ld.step, math.MaxInt))
		}
	}
	if st.width == 1 {
		return nil
	}
	if st.carried {
		st.path = carriedPath(a.code, carry)
		for i, p := range st.path {
			kc.depth = max(kc.depth, i+stackDepth(p.sib))
		}
	}
	return st
}

// carriedPath splits code at its one load of site c into the ops on the
// path from that load to the root, innermost first, each with the code of
// its other operand.
func carriedPath(code []kop, c int32) []kpath {
	// start[i] is the first op of the subexpression that op i ends.
	start := make([]int, len(code))
	var open []int
	at := -1
	for i, op := range code {
		if op.kind > opLoad {
			open = open[:len(open)-1]
			start[i] = open[len(open)-1]
			continue
		}
		start[i], open = i, append(open, i)
		if isLoad(op, c) {
			at = i
		}
	}
	var path []kpath
	for r := len(code) - 1; r != at; {
		right := r - 1           // the right operand ends just before its op
		left := start[right] - 1 // and the left one just before the right one starts
		if at > left {
			path = append(path, kpath{kind: code[r].kind, sib: code[start[r] : left+1]})
			r = right
		} else {
			path = append(path, kpath{kind: code[r].kind, left: true, sib: code[start[right] : right+1]})
			r = left
		}
	}
	slices.Reverse(path)
	return path
}

// stackDepth is the deepest stack code reaches.
func stackDepth(code []kop) int {
	n, d := 0, 0
	for _, op := range code {
		if op.kind > opLoad {
			n--
		} else {
			n++
			d = max(d, n)
		}
	}
	return d
}

func isLoad(op kop, site int32) bool { return op.kind == opLoad && op.site == site }

func loadsOf(code []kop, site int32) int {
	n := 0
	for _, op := range code {
		if isLoad(op, site) {
			n++
		}
	}
	return n
}

func (kc *kcompiler) compileStmts(stmts []Stmt, lvl *klevel, conditional bool) ([]kinstr, error) {
	var out []kinstr
	for _, s := range stmts {
		d := &kderive{} // what the statement derives, run just before it
		var ins kinstr
		switch s := s.(type) {
		case *Loop:
			lo, err := kc.index(s.Lo, d)
			if err != nil {
				return nil, err
			}
			hi, err := kc.index(s.Hi, d)
			if err != nil {
				return nil, err
			}
			loL, hiL := kc.lin(lo), kc.lin(hi) // bound registers before the loop's own
			reg := kc.regFor(s.Var)
			kc.internal[reg] = true
			inner := newLevel(reg, s.BreakIf == nil)
			r := loopRange(lo, hi, kc.ranges)
			if h := kc.hulls[s.Var]; !r.ok && h.ok {
				// Bounds the proof cannot see, a range kernel's [lo, hi):
				// the variable takes its hull, checked at entry.
				r = h
				inner.checks = append(inner.checks, hullCheck(reg, s.Var, h, 1))
			}
			kc.ranges[s.Var] = r
			body, err := kc.compileStmts(s.Body, inner, false)
			if err != nil {
				return nil, err
			}
			l := &kloop{reg: reg, lo: loL, hi: hiL, body: body}
			if s.BreakIf != nil {
				var bd kderive
				brk, err := kc.compileCond(*s.BreakIf, inner, false, &bd)
				if err != nil {
					return nil, err
				}
				if l.brk = &brk; len(bd) > 0 {
					l.body = append(l.body, bd)
				}
			}
			l.checks, l.preps, l.advs = inner.checks, inner.preps, inner.advs
			l.strip = kc.stripPlan(l)
			ins = l
		case *Assign:
			a, err := kc.compileAssign(s, lvl, conditional, d)
			if err != nil {
				return nil, err
			}
			ins = a
		case *If:
			cond, err := kc.compileCond(s.Cond, lvl, conditional, d)
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
			ins = &kif{cond: cond, then: then, els: els}
		default:
			return nil, fmt.Errorf("unknown statement %T", s)
		}
		if len(*d) > 0 {
			out = append(out, *d)
		}
		out = append(out, ins)
	}
	return out, nil
}

func (in *Instance) compileKernel(stmts []Stmt) (*Kernel, *kcompiler, error) {
	hulls := in.hulls()
	kc := &kcompiler{in: in, regIndex: map[string]int{}, internal: map[int]bool{}, hulls: hulls, ranges: maps.Clone(hulls)}
	root := newLevel(-1, true)
	code, err := kc.compileStmts(stmts, root, false)
	if err != nil {
		return nil, nil, err
	}
	k := &Kernel{
		code:       code,
		sites:      kc.sites,
		rootChecks: append(kc.free, root.checks...),
		rootPreps:  root.preps,
		regIndex:   kc.regIndex,
		nregs:      kc.nregs,
		depth:      kc.depth + 1,
	}
	for name, r := range kc.regIndex {
		if !kc.internal[r] && name != kernelLoVar && name != kernelHiVar {
			k.binds = append(k.binds, kfree{in.Frame.Slot(name), r})
		}
	}
	return k, kc, nil
}

// CompileKernel compiles a statement list against this instance's arrays.
// Variables that are neither parameters nor bound by loops inside the
// statement list become free variables, read per call from the frame.
// It lowers every statement list Validate accepts.
func (in *Instance) CompileKernel(stmts []Stmt) (*Kernel, error) {
	k, _, err := in.compileKernel(stmts)
	return k, err
}

// Run compiles the whole program body to a kernel and executes it. An
// access out of range panics, naming the array, where Interpret returns
// the error.
func (in *Instance) Run() error {
	k, err := in.CompileKernel(in.Prog.Body)
	if err != nil {
		return err
	}
	k.Run(nil)
	return nil
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

// Run executes iterations [lo,hi), its free variables read from frame.
func (rk *RangeKernel) Run(lo, hi int, frame []int) {
	k := rk.k
	x := k.getExec()
	k.bind(x, frame)
	x.regs[rk.loReg], x.regs[rk.hiReg] = lo, hi
	k.exec(x)
	k.putExec(x)
}
