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
// entry test, strength-reduced offset initialization with hoisted endpoint
// bounds checks, body / break / increment / advance sequencing — so its
// floating-point results are bit-identical to Kernel.Run. Floating-point
// constants are wrapped as float64(...) conversions: typed-constant
// arithmetic rounds per operation like the runtime, whereas untyped
// constant folding would round once at the end and could diverge from the
// VM by an ULP.

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
	freeRegs map[int]string // free register -> variable name
	usedFree map[int]bool
	arrayIdx map[string]int // array name -> data[] slot
	arrays   []string
}

func newEmitter(k *Kernel, kc *kcompiler, loReg, hiReg int) *emitter {
	em := &emitter{
		k: k, kc: kc, loReg: loReg, hiReg: hiReg,
		regNames: map[int]string{},
		freeRegs: map[int]string{},
		usedFree: map[int]bool{},
		arrayIdx: map[string]int{},
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
		default:
			v := sanitizeVar(names[r])
			em.regNames[r] = v
			if !kc.internal[r] {
				em.freeRegs[r] = v
			}
		}
	}
	return em
}

// goKeywords guards loop-variable names against the emitted scaffolding
// (lo, hi, regs, data, dN/oN/tN/loN/hiN locals, the check temporary e) and
// Go's keywords and predeclared identifiers a kernel body could plausibly
// collide with.
var goReserved = map[string]bool{
	"break": true, "case": true, "chan": true, "const": true,
	"continue": true, "default": true, "defer": true, "else": true,
	"fallthrough": true, "for": true, "func": true, "go": true,
	"goto": true, "if": true, "import": true, "interface": true,
	"map": true, "package": true, "range": true, "return": true,
	"select": true, "struct": true, "switch": true, "type": true,
	"var": true, "len": true, "panic": true, "int": true, "float64": true,
	"lo": true, "hi": true, "regs": true, "data": true, "e": true,
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
		// dN, oN, tN, loN, hiN are scaffolding names.
		for _, p := range []string{"d", "o", "t", "lo", "hi"} {
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
	sort.Slice(freeIdx, func(i, j int) bool { return em.freeRegs[freeIdx[i]] < em.freeRegs[freeIdx[j]] })

	ek := &EmittedKernel{Name: name, Arrays: em.arrays}
	var b strings.Builder
	progName := em.kc.lw.in.Prog.Name
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
		fmt.Fprintf(&b, "\t%s := regs[%d] // free variable\n", em.freeRegs[r], i)
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
// advances per iteration.
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
		if pr.hoist && pr.step != 0 {
			trip = fmt.Sprintf("t%d", id)
			em.p("%s := %s - %s", trip, hiV, loV)
			break
		}
	}
	em.preps(l.preps, trip)
	em.p("for {")
	em.depth++
	em.stmts(l.body)
	if l.brk != nil {
		em.p("if %s {", em.cond(l.brk))
		em.depth++
		em.p("break")
		em.depth--
		em.p("}")
	}
	em.p("%s++", v)
	em.p("if %s >= %s {", v, hiV)
	em.depth++
	em.p("break")
	em.depth--
	em.p("}")
	for _, a := range l.advs {
		switch {
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
	em.depth--
	em.p("}")
	em.depth--
	em.p("}")
}

// preps initializes each site's strength-reduced flat offset and emits the
// hoisted endpoint bounds check: an affine offset is monotonic in the loop
// variable, so checking the first and last iterations' offsets covers
// every access. trip is the trip-count local ("" when every hoisted step
// is 0, e.g. at the root where the implicit trip is 1).
func (em *emitter) preps(preps []kprep, trip string) {
	for _, pr := range preps {
		s := &em.k.sites[pr.site]
		d := fmt.Sprintf("d%d", em.arrayIdx[s.name])
		em.p("o%d := %s", pr.site, em.lin(s.flat))
		if !pr.hoist {
			continue
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

func (em *emitter) assign(a *kassign) {
	s := &em.k.sites[a.dst]
	em.p("d%d[o%d] = %s", em.arrayIdx[s.name], a.dst, em.expr(a.code))
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
			s := &em.k.sites[op.site]
			st = append(st, frag{fmt.Sprintf("d%d[o%d]", em.arrayIdx[s.name], op.site), 3})
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
