// Package loopir defines a small loop-nest intermediate representation for
// dense scientific codes: perfectly or imperfectly nested counted loops over
// multi-dimensional float64 arrays with affine subscripts.
//
// It plays the role of the sequential source program in the paper: the
// authors hand-compiled Fortran routines (matrix multiplication, successive
// overrelaxation, LU decomposition) into C; here the same routines are
// expressed in this IR, analyzed by internal/depend, and parallelized by
// internal/compile. The package also provides a sequential interpreter
// (the correctness reference for all parallel executions) and the kernel
// compiler (kernel.go) whose one IR the VM runs and emit.go prints as Go,
// used by both the reference runs and the generated slave code.
package loopir

import (
	"fmt"
	"slices"
	"strings"
)

// ---------------------------------------------------------------------------
// Index expressions (integers: loop bounds and array subscripts)
// ---------------------------------------------------------------------------

// IExpr is an integer-valued index expression over loop variables and
// program parameters.
type IExpr interface {
	isIExpr()
	String() string
}

// ICon is an integer constant.
type ICon int

// IVar names a loop variable or program parameter.
type IVar string

// IBin is a binary integer operation; Op is one of '+', '-', '*'.
type IBin struct {
	Op   byte
	L, R IExpr
}

// IArr reads a data-array element and truncates it toward zero to an
// integer — a data-dependent subscript or loop bound (CSR row lengths,
// per-cell particle counts). An array read through IArr anywhere in a
// program must never be written by that program: the dependence analysis
// does not trace data-dependent index values, and read-only index arrays
// are what make that sound (Validate enforces it). IArr is not accepted in
// array dimension declarations.
type IArr struct {
	Array string
	Idx   []IExpr
}

func (ICon) isIExpr() {}
func (IVar) isIExpr() {}
func (IBin) isIExpr() {}
func (IArr) isIExpr() {}

func (c ICon) String() string { return fmt.Sprintf("%d", int(c)) }
func (v IVar) String() string { return string(v) }
func (b IBin) String() string {
	return fmt.Sprintf("(%s %c %s)", b.L.String(), b.Op, b.R.String())
}
func (a IArr) String() string {
	var sb strings.Builder
	sb.WriteString(a.Array)
	for _, ix := range a.Idx {
		fmt.Fprintf(&sb, "[%s]", ix.String())
	}
	return sb.String()
}

// Convenience constructors for index expressions.

// Ic returns an integer constant.
func Ic(n int) IExpr { return ICon(n) }

// Iv returns a variable reference.
func Iv(name string) IExpr { return IVar(name) }

// Iadd returns l + r.
func Iadd(l, r IExpr) IExpr { return IBin{'+', l, r} }

// Isub returns l - r.
func Isub(l, r IExpr) IExpr { return IBin{'-', l, r} }

// Imul returns l * r.
func Imul(l, r IExpr) IExpr { return IBin{'*', l, r} }

// Ia returns a data-array index read (truncated toward zero).
func Ia(array string, idx ...IExpr) IExpr { return IArr{Array: array, Idx: idx} }

// ---------------------------------------------------------------------------
// Data expressions (float64)
// ---------------------------------------------------------------------------

// Expr is a float64-valued expression.
type Expr interface {
	isExpr()
	String() string
}

// Const is a floating-point constant.
type Const float64

// Ref reads (or, as an Assign LHS, writes) an array element.
type Ref struct {
	Array string
	Idx   []IExpr
}

// Bin is a binary arithmetic operation; Op is one of '+', '-', '*', '/'.
type Bin struct {
	Op   byte
	L, R Expr
}

func (Const) isExpr() {}
func (Ref) isExpr()   {}
func (Bin) isExpr()   {}

func (c Const) String() string { return fmt.Sprintf("%g", float64(c)) }
func (r Ref) String() string {
	var sb strings.Builder
	sb.WriteString(r.Array)
	for _, ix := range r.Idx {
		fmt.Fprintf(&sb, "[%s]", ix.String())
	}
	return sb.String()
}
func (b Bin) String() string {
	return fmt.Sprintf("(%s %c %s)", b.L.String(), b.Op, b.R.String())
}

// Convenience constructors for data expressions.

// Fc returns a float constant.
func Fc(v float64) Expr { return Const(v) }

// Fref returns an array element reference.
func Fref(array string, idx ...IExpr) Ref { return Ref{Array: array, Idx: idx} }

// Fadd returns l + r.
func Fadd(l, r Expr) Expr { return Bin{'+', l, r} }

// Fsub returns l - r.
func Fsub(l, r Expr) Expr { return Bin{'-', l, r} }

// Fmul returns l * r.
func Fmul(l, r Expr) Expr { return Bin{'*', l, r} }

// Fdiv returns l / r.
func Fdiv(l, r Expr) Expr { return Bin{'/', l, r} }

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// Stmt is a statement: a counted loop, an assignment, or a conditional.
type Stmt interface {
	isStmt()
}

// Loop iterates Var from Lo (inclusive) to Hi (exclusive) with unit step.
// A non-nil BreakIf makes the trip count data dependent: the condition is
// evaluated after each iteration and the loop exits early when it holds —
// the paper's "distributed loop nested inside a data-dependent WHILE loop"
// case (§4.1), written as a bounded loop with a convergence test.
type Loop struct {
	Var     string
	Lo      IExpr
	Hi      IExpr
	Body    []Stmt
	BreakIf *Cond
}

// Assign stores the value of RHS into the element named by LHS.
type Assign struct {
	LHS Ref
	RHS Expr
}

// Cond is a floating-point comparison; Op is one of "<", "<=", ">", ">=",
// "==", "!=".
type Cond struct {
	Op   string
	L, R Expr
}

// If executes Then when Cond holds, Else otherwise. Its presence in a loop
// body makes iteration cost data-dependent (a Table 1 property).
type If struct {
	Cond Cond
	Then []Stmt
	Else []Stmt
}

func (*Loop) isStmt()   {}
func (*Assign) isStmt() {}
func (*If) isStmt()     {}

// For constructs a Loop.
func For(v string, lo, hi IExpr, body ...Stmt) *Loop {
	return &Loop{Var: v, Lo: lo, Hi: hi, Body: body}
}

// Set constructs an Assign.
func Set(lhs Ref, rhs Expr) *Assign { return &Assign{LHS: lhs, RHS: rhs} }

// ---------------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------------

// InitFn produces the initial value of an array element from its index
// vector. A nil InitFn means zero initialization.
type InitFn func(idx []int) float64

// ArrayDecl declares a dense float64 array with parameterized extents.
// InitSpec, when non-empty, names Init in the source language's initializer
// syntax (e.g. "hash(3)") so formatting a program preserves its initial
// data; Init alone is an opaque function and cannot be serialized.
type ArrayDecl struct {
	Name     string
	Dims     []IExpr
	Init     InitFn
	InitSpec string
}

// Program is a complete sequential loop-nest program.
type Program struct {
	Name   string
	Params []string
	Arrays []*ArrayDecl
	Body   []Stmt
}

// Ident is the program's name as a source-language identifier. Names are
// free-form in loopir ("jacobi-converge"); the formatted text a daemon
// recompiles, and the rendered plan hashed beside it, carry this one.
func (p *Program) Ident() string { return strings.ReplaceAll(p.Name, "-", "_") }

// Array looks up a declaration by name, or nil.
func (p *Program) Array(name string) *ArrayDecl {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Validate checks structural well-formedness: declared parameter and array
// names are unique, every referenced array is declared with matching rank,
// every variable in an index expression is a parameter or an enclosing loop
// variable, and loop variables do not shadow parameters or each other.
// Data-dependent indexing carries two extra rules: IArr may not appear in
// array dimension declarations, and an array read through IArr anywhere
// must never be written (the dependence analysis does not trace values, so
// soundness requires index arrays to be read-only).
func (p *Program) Validate() error {
	seen := map[string]bool{}
	for _, prm := range p.Params {
		if seen[prm] {
			return fmt.Errorf("%s: duplicate parameter %q", p.Name, prm)
		}
		seen[prm] = true
	}
	arrays := map[string]int{}
	for _, a := range p.Arrays {
		if _, dup := arrays[a.Name]; dup {
			return fmt.Errorf("%s: duplicate array %q", p.Name, a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("%s: array %q collides with a parameter", p.Name, a.Name)
		}
		if len(a.Dims) == 0 {
			return fmt.Errorf("%s: array %q has no dimensions", p.Name, a.Name)
		}
		for _, d := range a.Dims {
			if err := p.checkIVars(d, nil, nil); err != nil {
				return fmt.Errorf("%s: array %q dims: %v", p.Name, a.Name, err)
			}
		}
		arrays[a.Name] = len(a.Dims)
	}
	idxRead := map[string]bool{}
	err := Walk(p.Body, func(s Stmt, loops []*Loop) error {
		indexArrays(s, idxRead)
		return p.checkStmt(s, loops, arrays)
	})
	if err != nil {
		return err
	}
	return Walk(p.Body, func(s Stmt, _ []*Loop) error {
		if a, ok := s.(*Assign); ok && idxRead[a.LHS.Array] {
			return fmt.Errorf("%s: array %q is read as an index and must be read-only", p.Name, a.LHS.Array)
		}
		return nil
	})
}

// IsParam reports whether name is one of the program's parameters.
func (p *Program) IsParam(name string) bool { return slices.Contains(p.Params, name) }

// indexArrays adds to set every array s reads through an IArr index
// expression: in a loop's bounds and break condition, and in the subscripts
// of every reference s makes.
func indexArrays(s Stmt, set map[string]bool) {
	subscripts := func(r Ref) error {
		for _, ix := range r.Idx {
			collectIArrIdx(ix, set)
		}
		return nil
	}
	if l, ok := s.(*Loop); ok {
		collectIArrIdx(l.Lo, set)
		collectIArrIdx(l.Hi, set)
		if l.BreakIf != nil {
			condReads(*l.BreakIf, subscripts)
		}
	}
	if a, ok := s.(*Assign); ok {
		subscripts(a.LHS)
	}
	Reads(s, subscripts)
}

func collectIArrIdx(e IExpr, set map[string]bool) {
	switch e := e.(type) {
	case IBin:
		collectIArrIdx(e.L, set)
		collectIArrIdx(e.R, set)
	case IArr:
		set[e.Array] = true
		for _, ix := range e.Idx {
			collectIArrIdx(ix, set)
		}
	}
}

// UsesIArr reports whether the statement list contains any data-dependent
// IArr index read — the property that routes a program to data-aware cost
// accounting and the interpreter execution tier.
func UsesIArr(stmts []Stmt) bool {
	set := map[string]bool{}
	Walk(stmts, func(s Stmt, _ []*Loop) error {
		indexArrays(s, set)
		return nil
	})
	return len(set) > 0
}

// checkStmt validates one statement; loops are the loops enclosing it.
func (p *Program) checkStmt(s Stmt, loops []*Loop, arrays map[string]int) error {
	loopVars := make([]string, len(loops))
	for i, l := range loops {
		loopVars[i] = l.Var
	}
	if l, ok := s.(*Loop); ok {
		return p.checkLoop(l, loopVars, arrays)
	}
	switch s := s.(type) {
	case *Assign:
		if err := p.checkRef(s.LHS, loopVars, arrays); err != nil {
			return err
		}
		return p.checkExpr(s.RHS, loopVars, arrays)
	case *If:
		return p.checkCond(s.Cond, "comparison", loopVars, arrays)
	}
	return fmt.Errorf("%s: unknown statement type %T", p.Name, s)
}

// checkLoop validates a loop's variable, bounds and break condition; its
// body is the walk's business.
func (p *Program) checkLoop(l *Loop, loopVars []string, arrays map[string]int) error {
	if slices.Contains(loopVars, l.Var) {
		return fmt.Errorf("%s: loop variable %q shadows an enclosing loop", p.Name, l.Var)
	}
	if p.IsParam(l.Var) {
		return fmt.Errorf("%s: loop variable %q shadows a parameter", p.Name, l.Var)
	}
	if err := p.checkIVars(l.Lo, loopVars, arrays); err != nil {
		return fmt.Errorf("%s: loop %q lower bound: %v", p.Name, l.Var, err)
	}
	if err := p.checkIVars(l.Hi, loopVars, arrays); err != nil {
		return fmt.Errorf("%s: loop %q upper bound: %v", p.Name, l.Var, err)
	}
	if l.BreakIf != nil {
		return p.checkCond(*l.BreakIf, "breakif", append(loopVars, l.Var), arrays)
	}
	return nil
}

// checkCond validates a comparison's operands, then its operator; what
// names the operator in the error.
func (p *Program) checkCond(c Cond, what string, loopVars []string, arrays map[string]int) error {
	if err := p.checkExpr(c.L, loopVars, arrays); err != nil {
		return err
	}
	if err := p.checkExpr(c.R, loopVars, arrays); err != nil {
		return err
	}
	switch c.Op {
	case "<", "<=", ">", ">=", "==", "!=":
		return nil
	}
	return fmt.Errorf("%s: bad %s op %q", p.Name, what, c.Op)
}

func (p *Program) checkRef(r Ref, loopVars []string, arrays map[string]int) error {
	rank, ok := arrays[r.Array]
	if !ok {
		return fmt.Errorf("%s: reference to undeclared array %q", p.Name, r.Array)
	}
	if len(r.Idx) != rank {
		return fmt.Errorf("%s: array %q has rank %d but is indexed with %d subscripts", p.Name, r.Array, rank, len(r.Idx))
	}
	for _, ix := range r.Idx {
		if err := p.checkIVars(ix, loopVars, arrays); err != nil {
			return fmt.Errorf("%s: subscript of %q: %v", p.Name, r.Array, err)
		}
	}
	return nil
}

func (p *Program) checkExpr(e Expr, loopVars []string, arrays map[string]int) error {
	switch e := e.(type) {
	case Const:
		return nil
	case Ref:
		return p.checkRef(e, loopVars, arrays)
	case Bin:
		switch e.Op {
		case '+', '-', '*', '/':
		default:
			return fmt.Errorf("%s: bad arithmetic op %q", p.Name, string(e.Op))
		}
		if err := p.checkExpr(e.L, loopVars, arrays); err != nil {
			return err
		}
		return p.checkExpr(e.R, loopVars, arrays)
	default:
		return fmt.Errorf("%s: unknown expression type %T", p.Name, e)
	}
}

// checkIVars validates an index expression. arrays is the declared-array
// rank table; nil means IArr is not allowed in this position (array
// dimension declarations, which are evaluated before any data exists).
func (p *Program) checkIVars(e IExpr, loopVars []string, arrays map[string]int) error {
	switch e := e.(type) {
	case ICon:
		return nil
	case IVar:
		name := string(e)
		if p.IsParam(name) || slices.Contains(loopVars, name) {
			return nil
		}
		return fmt.Errorf("unbound variable %q", name)
	case IBin:
		switch e.Op {
		case '+', '-', '*':
		default:
			return fmt.Errorf("bad index op %q", string(e.Op))
		}
		if err := p.checkIVars(e.L, loopVars, arrays); err != nil {
			return err
		}
		return p.checkIVars(e.R, loopVars, arrays)
	case IArr:
		if arrays == nil {
			return fmt.Errorf("array read %q not allowed here", e.Array)
		}
		rank, ok := arrays[e.Array]
		if !ok {
			return fmt.Errorf("index read of undeclared array %q", e.Array)
		}
		if len(e.Idx) != rank {
			return fmt.Errorf("index read of %q: rank %d indexed with %d subscripts", e.Array, rank, len(e.Idx))
		}
		for _, ix := range e.Idx {
			if err := p.checkIVars(ix, loopVars, arrays); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown index expression type %T", e)
	}
}
