package loopir

import (
	"fmt"
	"go/format"
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
// entry test, entry checks, strength-reduced offset initialization, body /
// break / increment / advance sequencing — so its floating-point results
// are bit-identical to Kernel.Run. Floating-point constants are wrapped as
// float64(...) conversions: typed-constant arithmetic rounds per operation
// like the runtime, whereas untyped constant folding would round once at
// the end and could diverge from the VM by an ULP.
//
// It prints the VM's one bounds rule (kernel.go): a proven subscript
// carries no check, and every runtime check is one if statement comparing
// one subscript with its dimension, or one variable with its hull, and
// panicking with a message that names it — at a loop's entry for its two
// endpoints, or at each access of a derived site. Go's own slice bounds
// checks stay underneath.
//
// An innermost loop reads and writes each site that steps with it through
// a window, a re-slice of exactly the elements its iterations touch,
// indexed by a counter the Go compiler proves in range, and each step-0
// site through a pointer, so the loop carries no bounds check but for
// sites of a second stride, which keep the offset form. The same loads
// and stores in the same order reach the same backing arrays, so windows
// and pointers change no result.
//
// A kderive prints as := locals, rN registers and oN offsets.

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
	loopSeq  int
	regNames map[int]string // register -> Go expression
	freeRegs map[int]string // free register -> source variable name (its FreeVars entry)
	usedFree map[int]bool
	arrayIdx map[string]int // array name -> data[] slot
	arrays   []string
	win      map[int32]string // the current innermost loop's window and pointer accesses
}

func newEmitter(k *Kernel, kc *kcompiler, loReg, hiReg int) *emitter {
	em := &emitter{
		k: k, kc: kc, loReg: loReg, hiReg: hiReg,
		regNames: map[int]string{},
		freeRegs: map[int]string{},
		usedFree: map[int]bool{},
		arrayIdx: map[string]int{},
		win:      map[int32]string{},
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
// (lo, hi, regs, data, dN/oN/pN/wN/loN/hiN/rN locals, the check temporary
// e, the window counter x) and Go's keywords and
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
		// dN, oN, pN, wN, loN, hiN, rN are scaffolding names.
		for _, p := range []string{"d", "o", "p", "w", "lo", "hi", "r"} {
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
	em.enter(em.k.rootChecks, em.k.rootPreps, "")
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

// p prints one line of the body; emit's gofmt pass indents it.
func (em *emitter) p(format string, args ...interface{}) {
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
// loop variable initialized to lo, entry checks, offsets prepped, then
// body / break test / increment / exit test / offset advances per
// iteration. An innermost loop with windows (see windows)
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
	v := em.regNames[l.reg]
	em.p("%s := %s", v, loV)
	trip := fmt.Sprintf("(%s - %s)", hiV, loV)
	em.enter(l.checks, l.preps, trip)
	first, step := em.windows(l, trip)
	switch {
	case first == "":
		em.p("for {")
	case step == 1:
		em.p("for x := range %s {", first)
	default:
		em.p("for x := uint(0); x < uint(len(%s)); x += %d {", first, step)
	}
	em.stmts(l.body)
	if l.brk != nil {
		em.p("if %s { break }", em.cond(l.brk)) // gofmt (emit) spreads it over lines
	}
	if first == "" {
		em.p("%s++", v)
		em.p("if %s >= %s { break }", v, hiV)
	}
	for _, a := range l.advs {
		if em.win[a.site] == "" { // a window moves with x
			em.p("o%d += %d", a.site, a.step)
		}
	}
	clear(em.win)
	em.p("}")
	em.p("}")
}

// windows gives an innermost loop one window per site that steps by the
// loop's step s, its first positive site step: wN := dX[oN :
// oN+s*(t-1)+1], the elements the loop's t iterations touch, each tied
// to the first window's length. The loop then counts x over the first
// window by s and indexes wN[x], which the compiler's prove pass shows in
// range, so those accesses pay no bounds check. For s > 1 the counter is
// unsigned: prove cannot rule out that a signed x += s wraps negative,
// and x < uint(len(wF)) is the very comparison a bounds check makes. Each
// step-0 site gets a pointer, pN := &dX[oN], whose bounds Go checks once;
// the loop reads and writes *pN.
//
// Every subscript of a site is proven or checked at entry, so each window
// and pointer lies inside its array; they follow the entry checks, so a
// range those refuse panics with their message first. Other steps keep
// the offset form. It returns the first window and s, or "" when the loop
// keeps the offset form throughout, as it does when its body derives: x
// does not advance the loop variable that reads.
func (em *emitter) windows(l *kloop, trip string) (string, int) {
	if holds[*kloop](l.body) {
		return "", 0
	}
	step := 0
	for _, s := range l.preps {
		if st := em.k.sites[s].step; st > 0 && !holds[kderive](l.body) {
			step = st
			break
		}
	}
	end := trip
	if step != 1 {
		end = fmt.Sprintf("%d*(%s-1)+1", step, trip)
	}
	first := ""
	for _, s := range l.preps {
		switch em.k.sites[s].step {
		case 0:
			em.p("p%d := &%s[o%d]", s, em.data(s), s)
			em.win[s] = fmt.Sprintf("*p%d", s)
		case step:
			w := fmt.Sprintf("w%d", s)
			em.p("%s := %s[o%d : o%d+%s]", w, em.data(s), s, s, end)
			if first == "" {
				first = w
			} else {
				em.p("%s = %s[:len(%s)]", w, w, first)
			}
			em.win[s] = w + "[x]"
		}
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

// enter emits a loop's entry checks, each of the first and, when it
// steps, the last iteration's value, then initializes each site's
// strength-reduced flat offset. trip is the trip count's expression (""
// outside a loop, where the implicit trip is 1).
func (em *emitter) enter(checks []kdim, preps []int32, trip string) {
	for i := range checks {
		d := &checks[i]
		at := em.lin(d.at)
		check := "if e := %s; e < 0 || e >= %d { panic(%q) }"
		em.p(check, at, d.n, "dlbaot: "+d.msg)
		if d.step != 0 && trip != "" {
			em.p(check, fmt.Sprintf("%s + %d*(%s-1)", at, d.step, trip), d.n, "dlbaot: "+d.msg)
		}
	}
	for _, s := range preps {
		em.p("o%d := %s", s, em.lin(em.k.sites[s].flat))
	}
}

// derive prints a kderive: rN := for each derived register, its checks
// and oN := for each derived site's offset.
func (em *emitter) derive(d kderive) {
	for i := range d {
		r := &d[i]
		if r.site < 0 {
			em.p("%s := (%s) * (%s)", em.reg(r.reg), em.lin(r.l), em.lin(r.r))
			continue
		}
		em.enter(r.checks, []int32{r.site}, "")
		if r.reg >= 0 {
			em.p("%s := int(%s[o%d])", em.reg(r.reg), em.data(r.site), r.site)
		}
	}
}

func (em *emitter) assign(a *kassign) {
	em.p("%s = %s", em.access(a.dst), em.expr(a.code))
}

// data names the storage local of a site's array.
func (em *emitter) data(site int32) string {
	return fmt.Sprintf("d%d", em.arrayIdx[em.k.sites[site].name])
}

// access renders one access to a site: its window at the counter, its
// pointer, or its array at its offset.
func (em *emitter) access(site int32) string {
	if a := em.win[site]; a != "" {
		return a
	}
	return fmt.Sprintf("%s[o%d]", em.data(site), site)
}

func (em *emitter) condStmt(f *kif) {
	em.p("if %s {", em.cond(&f.cond))
	em.stmts(f.then)
	if len(f.els) > 0 {
		em.p("} else {")
		em.stmts(f.els)
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
