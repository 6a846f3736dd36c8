package loopir

import (
	"fmt"
	"go/format"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// This file is the AOT source emitter: it lowers a compiled kernel's
// instruction tree (kernel.go) to a straight-line Go function, closing the
// gap between the postfix VM and hand-written Go. The emitted function has
// the stable builtin-typed signature
//
//	func Name(lo, hi int, regs []int, data [][]float64)
//
// so it can cross a plugin boundary without named types: lo/hi carry the
// distributed range (unused by whole-body kernels), regs the free-variable
// values in EmittedKernel.FreeVars order, and data one flat storage slice
// per array in EmittedKernel.Arrays order.
//
// The emitted code replicates the VM's execution order exactly — loop
// entry test, strength-reduced offset initialization with hoisted endpoint
// bounds checks, body / break / increment / advance sequencing — so its
// floating-point results are bit-identical to Kernel.Run. Floating-point
// constants are wrapped as float64(...) conversions: typed-constant
// arithmetic rounds per operation like the runtime, whereas untyped
// constant folding would round once at the end and could diverge from the
// VM by an ULP.
//
// An innermost loop reads and writes each site that steps with it through
// a window: a re-slice of exactly the elements its iterations touch,
// indexed by a counter the Go compiler proves in range, so the loop
// carries no bounds check but for conditional sites and sites of a second
// stride, which keep the offset form. The same loads and stores in the
// same order reach the same backing arrays, so windows change no result.
//
// A kderive prints as := locals, rN registers and oN offsets, each
// subscript checked by the kernel's one closure ix (no imports needed).

// EmittedKernel is one emitted Go kernel function plus the metadata a host
// needs to call it: which storage slice goes in each data slot and which
// free variable goes in each regs slot.
type EmittedKernel struct {
	// Name is the emitted function's name.
	Name string
	// Src is the function source text (doc comment + declaration), ready
	// to be concatenated into a package file.
	Src string
	// Arrays names the array bound to each data[i] slot.
	Arrays []string
	// FreeVars names the free variable bound to each regs[i] slot. Loop
	// variables bound inside the kernel are locals and do not appear.
	FreeVars []string
}

// EmitRangeKernelGo emits the distributed loop `for distVar in [lo,hi) {
// body }` as a Go function. The same compilation path as
// CompileRangeKernel produces the instruction tree, so the emitted
// function is the native twin of the range kernel the VM would execute.
func (in *Instance) EmitRangeKernelGo(distVar string, body []Stmt, name string) (*EmittedKernel, error) {
	rk, kc, err := in.compileRange(distVar, body)
	if err != nil {
		return nil, err
	}
	em := newEmitter(rk.k, kc, rk.loReg, rk.hiReg)
	return em.emit(name, fmt.Sprintf("executes iterations [lo, hi) of distributed loop %q", distVar))
}

// EmitKernelGo emits a whole statement list as a Go function with the same
// signature; the lo/hi parameters are ignored. Free variables (if any) are
// still passed through regs.
func (in *Instance) EmitKernelGo(stmts []Stmt, name string) (*EmittedKernel, error) {
	k, kc, err := in.compileKernel(stmts)
	if err != nil {
		return nil, err
	}
	em := newEmitter(k, kc, -1, -1)
	return em.emit(name, "executes the whole kernel body (lo and hi are unused)")
}

type emitter struct {
	k            *Kernel
	kc           *kcompiler
	loReg, hiReg int

	body     strings.Builder
	depth    int
	loopSeq  int
	regNames map[int]string // register -> Go expression
	freeRegs map[int]string // free register -> source variable name (its FreeVars entry)
	usedFree map[int]bool
	arrayIdx map[string]int // array name -> data[] slot
	arrays   []string
	win      map[int32]bool // sites the current innermost loop indexes through windows
	ix       bool           // the body calls the range-check closure ix
}

func newEmitter(k *Kernel, kc *kcompiler, loReg, hiReg int) *emitter {
	em := &emitter{
		k: k, kc: kc, loReg: loReg, hiReg: hiReg,
		regNames: map[int]string{},
		freeRegs: map[int]string{},
		usedFree: map[int]bool{},
		arrayIdx: map[string]int{},
		win:      map[int32]bool{},
	}
	// Stable array order: by name.
	seen := map[string]bool{}
	for i := range k.sites {
		if n := k.sites[i].name; !seen[n] {
			seen[n] = true
			em.arrays = append(em.arrays, n)
		}
	}
	sort.Strings(em.arrays)
	for i, n := range em.arrays {
		em.arrayIdx[n] = i
	}
	// Register names: lo/hi map to the function parameters, loop-bound
	// registers to their (sanitized) source names, everything else is a
	// free variable bound from regs in the prologue.
	names := make([]string, k.nregs)
	for n, r := range k.regIndex {
		names[r] = n
	}
	for r := 0; r < k.nregs; r++ {
		switch {
		case r == loReg:
			em.regNames[r] = "lo"
		case r == hiReg:
			em.regNames[r] = "hi"
		case strings.HasPrefix(names[r], "#"): // derived
			em.regNames[r] = "r" + names[r][1:]
		default:
			em.regNames[r] = sanitizeVar(names[r])
			if !kc.internal[r] {
				em.freeRegs[r] = names[r]
			}
		}
	}
	return em
}

// goReserved guards loop-variable names against the emitted scaffolding
// (lo, hi, regs, data, dN/oN/tN/wN/loN/hiN/rN locals, the check temporary
// e, the window counter x, the range check ix) and Go's keywords and
// predeclared identifiers a kernel body could plausibly collide with.
var goReserved = map[string]bool{
	"break": true, "case": true, "chan": true, "const": true,
	"continue": true, "default": true, "defer": true, "else": true,
	"fallthrough": true, "for": true, "func": true, "go": true,
	"goto": true, "if": true, "import": true, "interface": true,
	"map": true, "package": true, "range": true, "return": true,
	"select": true, "struct": true, "switch": true, "type": true,
	"var": true, "len": true, "panic": true, "int": true, "float64": true,
	"lo": true, "hi": true, "regs": true, "data": true, "e": true, "x": true,
	"ix": true,
}

func sanitizeVar(name string) string {
	ok := name != "" && !goReserved[name]
	for i := 0; ok && i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			ok = i > 0
		default:
			ok = false
		}
	}
	if ok {
		// dN, oN, tN, wN, loN, hiN, rN are scaffolding names.
		for _, p := range []string{"d", "o", "t", "w", "lo", "hi", "r"} {
			if rest, found := strings.CutPrefix(name, p); found && rest != "" && isDigits(rest) {
				ok = false
				break
			}
		}
	}
	if !ok {
		var b strings.Builder
		b.WriteString("v_")
		for i := 0; i < len(name); i++ {
			c := name[i]
			if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
				b.WriteByte(c)
			} else {
				fmt.Fprintf(&b, "x%02x", c)
			}
		}
		return b.String()
	}
	return name
}

func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func (em *emitter) emit(name, doc string) (*EmittedKernel, error) {
	// Emit the body first (into em.body) so the prologue can bind only the
	// free variables the rendered expressions actually use.
	em.depth = 1
	em.preps(em.k.rootPreps, "")
	em.stmts(em.k.code)

	var freeIdx []int
	for r := range em.freeRegs {
		if em.usedFree[r] {
			freeIdx = append(freeIdx, r)
		}
	}
	sort.Slice(freeIdx, func(i, j int) bool { return em.regNames[freeIdx[i]] < em.regNames[freeIdx[j]] })

	ek := &EmittedKernel{Name: name, Arrays: em.arrays}
	var b strings.Builder
	progName := em.kc.in.Prog.Name
	fmt.Fprintf(&b, "// %s %s of program %q.\n", name, doc, progName)
	fmt.Fprintf(&b, "// data: %s", strings.Join(em.arrays, ", "))
	if len(freeIdx) > 0 {
		names := make([]string, len(freeIdx))
		for i, r := range freeIdx {
			names[i] = em.freeRegs[r]
		}
		fmt.Fprintf(&b, "; regs: %s", strings.Join(names, ", "))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "func %s(lo, hi int, regs []int, data [][]float64) {\n", name)
	for i, arr := range em.arrays {
		fmt.Fprintf(&b, "\td%d := data[%d] // %s\n", i, i, arr)
	}
	for i, r := range freeIdx {
		fmt.Fprintf(&b, "\t%s := regs[%d] // free variable\n", em.regNames[r], i)
		ek.FreeVars = append(ek.FreeVars, em.freeRegs[r])
	}
	if em.ix {
		b.WriteString("\tix := func(v, n int, msg string) int {\n\t\tif v < 0 || v >= n {\n\t\t\tpanic(msg)\n\t\t}\n\t\treturn v\n\t}\n")
	}
	b.WriteString(em.body.String())
	b.WriteString("}\n")
	// Canonicalize: gofmt tightens spacing around higher-precedence
	// operators in mixed expressions, and emitted code must be gofmt-clean.
	src, err := format.Source([]byte(b.String()))
	if err != nil {
		return nil, fmt.Errorf("emitted kernel %s does not parse: %w\n%s", name, err, b.String())
	}
	ek.Src = string(src)
	return ek, nil
}

func (em *emitter) p(format string, args ...interface{}) {
	for i := 0; i < em.depth; i++ {
		em.body.WriteByte('\t')
	}
	fmt.Fprintf(&em.body, format, args...)
	em.body.WriteByte('\n')
}

func (em *emitter) stmts(code []kinstr) {
	for _, ins := range code {
		switch ins := ins.(type) {
		case *kloop:
			em.loop(ins)
		case *kassign:
			em.assign(ins)
		case *kif:
			em.condStmt(ins)
		case kderive:
			em.derive(ins)
		}
	}
}

// isSimpleOperand reports whether a rendered linear form is a bare
// identifier or integer literal, safe to repeat instead of binding to a
// bounds local.
func isSimpleOperand(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == '-' {
		s = s[1:]
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
			return false
		}
	}
	return true
}

// loop emits one counted loop in the VM's exact sequencing: entry test,
// loop variable initialized to lo, offsets prepped (with hoisted endpoint
// checks), then body / break test / increment / exit test / offset
// advances per iteration. An innermost loop with windows (see windows)
// iterates a counter over its first window instead; every other site
// advances its offset at the end of the body.
func (em *emitter) loop(l *kloop) {
	id := em.loopSeq
	em.loopSeq++
	loS, hiS := em.lin(l.lo), em.lin(l.hi)
	loV, hiV := loS, hiS
	if !isSimpleOperand(loS) {
		loV = fmt.Sprintf("lo%d", id)
		em.p("%s := %s", loV, loS)
	}
	if !isSimpleOperand(hiS) {
		hiV = fmt.Sprintf("hi%d", id)
		em.p("%s := %s", hiV, hiS)
	}
	em.p("if %s > %s {", hiV, loV)
	em.depth++
	v := em.regNames[l.reg]
	em.p("%s := %s", v, loV)
	trip := ""
	for _, pr := range l.preps {
		if pr.hoist && (pr.step != 0 || slices.ContainsFunc(pr.dims, func(d kdim) bool { return d.step != 0 })) {
			trip = fmt.Sprintf("t%d", id)
			em.p("%s := %s - %s", trip, hiV, loV)
			break
		}
	}
	em.preps(l.preps, trip)
	first, step := em.windows(l, trip)
	switch {
	case first == "":
		em.p("for {")
	case step == 1:
		em.p("for x := range %s {", first)
	default:
		em.p("for x := uint(0); x < uint(len(%s)); x += %d {", first, step)
	}
	em.depth++
	em.stmts(l.body)
	if l.brk != nil {
		em.p("if %s {", em.cond(l.brk))
		em.depth++
		em.p("break")
		em.depth--
		em.p("}")
	}
	if first == "" {
		em.p("%s++", v)
		em.p("if %s >= %s {", v, hiV)
		em.depth++
		em.p("break")
		em.depth--
		em.p("}")
	}
	for _, a := range l.advs {
		switch {
		case em.win[a.site]: // its window moves with x
		case a.step == 1:
			em.p("o%d++", a.site)
		case a.step == -1:
			em.p("o%d--", a.site)
		case a.step > 0:
			em.p("o%d += %d", a.site, a.step)
		default:
			em.p("o%d -= %d", a.site, -a.step)
		}
	}
	clear(em.win)
	em.depth--
	em.p("}")
	em.depth--
	em.p("}")
}

// windows gives an innermost loop one window per hoisted site that steps
// by the loop's step s, the first positive hoisted step: wN := dX[oN :
// oN+s*(t-1)+1], the elements the loop's t iterations touch, each tied
// to the first window's length. The loop then counts x over the first
// window by s and indexes wN[x], which the compiler's prove pass shows in
// range, so those accesses pay no bounds check. For s > 1 the counter is
// unsigned: prove cannot rule out that a signed x += s wraps negative,
// and x < uint(len(wF)) is the very comparison a bounds check makes.
//
// It runs after preps, so a range the hoisted checks refuse panics with
// their message before any reslice. Step-0 sites keep dX[oN], already
// proved by their hoisted check; conditional sites, other steps and
// negative steps keep the offset form. It returns the first window and s,
// or "" when the loop keeps the offset form throughout, as it does when
// its body derives: x does not advance the loop variable that reads.
func (em *emitter) windows(l *kloop, trip string) (string, int) {
	if holds[*kloop](l.body) || holds[kderive](l.body) {
		return "", 0
	}
	step := 0
	for _, pr := range l.preps {
		if pr.hoist && pr.step > 0 {
			step = pr.step
			break
		}
	}
	if step == 0 {
		return "", 0
	}
	end := trip
	if step != 1 {
		end = fmt.Sprintf("%d*(%s-1)+1", step, trip)
	}
	first := ""
	for _, pr := range l.preps {
		if !pr.hoist || pr.step != step {
			continue
		}
		w := fmt.Sprintf("w%d", pr.site)
		em.p("%s := %s[o%d : o%d+%s]", w, em.data(pr.site), pr.site, pr.site, end)
		if first == "" {
			first = w
		} else {
			em.p("%s = %s[:len(%s)]", w, w, first)
		}
		em.win[pr.site] = true
	}
	return first, step
}

// holds reports whether code contains a T, under an If or not.
func holds[T kinstr](code []kinstr) bool {
	for _, ins := range code {
		if _, ok := ins.(T); ok {
			return true
		}
		if f, ok := ins.(*kif); ok && (holds[T](f.then) || holds[T](f.els)) {
			return true
		}
	}
	return false
}

// preps initializes each site's strength-reduced flat offset and emits the
// hoisted endpoint bounds check: an affine offset is monotonic in the loop
// variable, so checking the first and last iterations' offsets covers
// every access. trip is the trip-count local ("" when every hoisted step
// is 0, e.g. at the root where the implicit trip is 1). Under data-dependent
// bounds ix checks each subscript first; windows need the flat check.
func (em *emitter) preps(preps []kprep, trip string) {
	for _, pr := range preps {
		s := &em.k.sites[pr.site]
		d := em.data(pr.site)
		em.p("o%d := %s", pr.site, em.lin(s.flat))
		if !pr.hoist {
			continue
		}
		for i, dm := range pr.dims {
			em.ix = true
			em.p("ix(%s, %d, %q)", em.lin(dm.at), dm.n, dimRange(s.name, i))
			if dm.step != 0 && trip != "" {
				em.p("ix(%s + %d*(%s-1), %d, %q)", em.lin(dm.at), dm.step, trip, dm.n, dimRange(s.name, i))
			}
		}
		if pr.step == 0 || trip == "" {
			em.p("if o%d < 0 || o%d >= len(%s) {", pr.site, pr.site, d)
		} else {
			step := strconv.Itoa(pr.step)
			if pr.step < 0 {
				step = "(" + step + ")"
			}
			em.p("if e := o%d + %s*(%s-1); o%d < 0 || o%d >= len(%s) || e < 0 || e >= len(%s) {",
				pr.site, step, trip, pr.site, pr.site, d, d)
		}
		em.depth++
		em.p("panic(%q)", fmt.Sprintf("dlbaot: access to %q out of range", s.name))
		em.depth--
		em.p("}")
	}
}

// dimRange is ix's message for an out-of-range subscript.
func dimRange(array string, dim int) string {
	return fmt.Sprintf("dlbaot: access to %q out of range in dim %d", array, dim)
}

// derive prints a kderive: rN := for each derived register, oN := for
// each derived site's offset.
func (em *emitter) derive(d kderive) {
	em.ix = true
	for i := range d {
		switch r := &d[i]; {
		case r.arr == nil:
			em.p("%s := (%s) * (%s)", em.reg(r.reg), em.lin(r.idx[0]), em.lin(r.idx[1]))
		case r.reg >= 0:
			em.p("%s := int(%s[%s])", em.reg(r.reg), em.data(r.site), em.offset(r))
		default:
			em.p("o%d := %s", r.site, em.offset(r))
		}
	}
}

// offset renders a derived reference's flat offset, each subscript
// checked by ix.
func (em *emitter) offset(r *kref) string {
	terms := make([]string, len(r.idx))
	for d, l := range r.idx {
		terms[d] = fmt.Sprintf("ix(%s, %d, %q)", em.lin(l), r.arr.Dims[d], dimRange(r.arr.Name, d))
		if s := r.arr.Stride[d]; s != 1 {
			terms[d] += "*" + strconv.Itoa(s)
		}
	}
	return strings.Join(terms, " + ")
}

func (em *emitter) assign(a *kassign) {
	em.p("%s = %s", em.access(a.dst), em.expr(a.code))
}

// data names the storage local of a site's array.
func (em *emitter) data(site int32) string {
	return fmt.Sprintf("d%d", em.arrayIdx[em.k.sites[site].name])
}

// access renders one access to a site: its window at the counter, or its
// array at its offset.
func (em *emitter) access(site int32) string {
	if em.win[site] {
		return fmt.Sprintf("w%d[x]", site)
	}
	return fmt.Sprintf("%s[o%d]", em.data(site), site)
}

func (em *emitter) condStmt(f *kif) {
	em.p("if %s {", em.cond(&f.cond))
	em.depth++
	em.stmts(f.then)
	em.depth--
	if len(f.els) > 0 {
		em.p("} else {")
		em.depth++
		em.stmts(f.els)
		em.depth--
	}
	em.p("}")
}

func (em *emitter) cond(c *kcond) string {
	var op string
	switch c.op {
	case cmpLT:
		op = "<"
	case cmpLE:
		op = "<="
	case cmpGT:
		op = ">"
	case cmpGE:
		op = ">="
	case cmpEQ:
		op = "=="
	default:
		op = "!="
	}
	return em.expr(c.l) + " " + op + " " + em.expr(c.r)
}

// expr reconstructs an infix expression from a postfix program. Operand
// order and grouping reproduce the VM's evaluation exactly; parentheses
// are inserted wherever Go's left-associative parse would regroup a
// right-hand operand (floating-point arithmetic is not associative).
func (em *emitter) expr(code []kop) string {
	type frag struct {
		s    string
		prec int // 3 atom, 2 mul/div, 1 add/sub
	}
	var st []frag
	for i := range code {
		op := &code[i]
		switch op.kind {
		case opConst:
			st = append(st, frag{"float64(" + formatConst(op.c) + ")", 3})
		case opLoad:
			st = append(st, frag{em.access(op.site), 3})
		default:
			var sym string
			var prec int
			switch op.kind {
			case opAdd:
				sym, prec = "+", 1
			case opSub:
				sym, prec = "-", 1
			case opMul:
				sym, prec = "*", 2
			default:
				sym, prec = "/", 2
			}
			n := len(st) - 1
			l, r := st[n-1], st[n]
			st = st[:n-1]
			ls, rs := l.s, r.s
			if l.prec < prec {
				ls = "(" + ls + ")"
			}
			if r.prec <= prec {
				rs = "(" + rs + ")"
			}
			st = append(st, frag{ls + " " + sym + " " + rs, prec})
		}
	}
	return st[len(st)-1].s
}

// formatConst renders a float64 so that parsing the literal recovers the
// exact bit pattern (shortest round-tripping decimal).
func formatConst(c float64) string {
	return strconv.FormatFloat(c, 'g', -1, 64)
}

// lin renders an integer linear form over the visible register locals.
func (em *emitter) lin(l lin) string {
	var b strings.Builder
	if l.c != 0 || len(l.terms) == 0 {
		b.WriteString(strconv.Itoa(l.c))
	}
	for _, t := range l.terms {
		name := em.reg(t.reg)
		coef := t.coef
		if b.Len() > 0 {
			if coef < 0 {
				b.WriteString(" - ")
				coef = -coef
			} else {
				b.WriteString(" + ")
			}
		} else if coef < 0 {
			b.WriteString("-")
			coef = -coef
		}
		if coef == 1 {
			b.WriteString(name)
		} else {
			fmt.Fprintf(&b, "%d*%s", coef, name)
		}
	}
	return b.String()
}

func (em *emitter) reg(r int) string {
	if _, free := em.freeRegs[r]; free {
		em.usedFree[r] = true
	}
	return em.regNames[r]
}
