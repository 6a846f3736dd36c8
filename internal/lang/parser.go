package lang

import (
	"fmt"
	"strconv"

	"repro/internal/loopir"
)

// Parse compiles source text into a validated loopir program.
func Parse(src string) (*loopir.Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.program()
	if err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(t token, format string, args ...interface{}) error {
	return &Error{t.line, t.col, fmt.Sprintf(format, args...)}
}

func (p *parser) expect(text string) (token, error) {
	t := p.cur()
	if t.kind == tokPunct && t.text == text || t.kind == tokIdent && t.text == text {
		p.pos++
		return t, nil
	}
	return t, p.errf(t, "expected %q, found %q", text, t.text)
}

func (p *parser) expectIdent() (token, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return t, p.errf(t, "expected identifier, found %q", t.text)
	}
	p.pos++
	return t, nil
}

var keywords = map[string]bool{
	"program": true, "array": true, "init": true,
	"for": true, "to": true, "until": true, "if": true, "else": true,
}

func (p *parser) program() (*loopir.Program, error) {
	if _, err := p.expect("program"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	prog := &loopir.Program{Name: name.text}
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	if p.cur().text != ")" {
		for {
			prm, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			prog.Params = append(prog.Params, prm.text)
			if p.cur().text != "," {
				break
			}
			p.pos++
		}
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	for p.cur().kind == tokIdent && p.cur().text == "array" {
		decl, err := p.arrayDecl()
		if err != nil {
			return nil, err
		}
		prog.Arrays = append(prog.Arrays, decl)
	}
	for p.cur().kind != tokEOF {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		prog.Body = append(prog.Body, s)
	}
	return prog, nil
}

func (p *parser) arrayDecl() (*loopir.ArrayDecl, error) {
	if _, err := p.expect("array"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	decl := &loopir.ArrayDecl{Name: name.text}
	for p.cur().text == "[" {
		p.pos++
		d, err := p.iexpr()
		if err != nil {
			return nil, err
		}
		decl.Dims = append(decl.Dims, d)
		if _, err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	if len(decl.Dims) == 0 {
		return nil, p.errf(p.cur(), "array %q needs at least one dimension", name.text)
	}
	if p.cur().kind == tokIdent && p.cur().text == "init" {
		p.pos++
		fn, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		arg := 0.0
		if p.cur().text == "(" {
			p.pos++
			t := p.next()
			if t.kind != tokInt && t.kind != tokFloat {
				return nil, p.errf(t, "initializer argument must be a number, found %q", t.text)
			}
			arg, err = strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf(t, "bad number %q", t.text)
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
		}
		var ok bool
		if decl.Init, decl.InitSpec, ok = loopir.Initializer(fn.text, arg); !ok {
			return nil, p.errf(fn, "unknown initializer %q (have zero, hash, diagdom, powrows, band)", fn.text)
		}
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return decl, nil
}

func (p *parser) stmt() (loopir.Stmt, error) {
	t := p.cur()
	switch {
	case t.kind == tokIdent && t.text == "for":
		return p.forStmt()
	case t.kind == tokIdent && t.text == "if":
		return p.ifStmt()
	case t.kind == tokIdent && !keywords[t.text]:
		return p.assign()
	}
	return nil, p.errf(t, "expected statement, found %q", t.text)
}

func (p *parser) block() ([]loopir.Stmt, error) {
	if _, err := p.expect("{"); err != nil {
		return nil, err
	}
	var out []loopir.Stmt
	for p.cur().text != "}" {
		if p.cur().kind == tokEOF {
			return nil, p.errf(p.cur(), "unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	p.pos++
	return out, nil
}

func (p *parser) forStmt() (loopir.Stmt, error) {
	p.pos++ // "for"
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("="); err != nil {
		return nil, err
	}
	lo, err := p.iexpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("to"); err != nil {
		return nil, err
	}
	hi, err := p.iexpr()
	if err != nil {
		return nil, err
	}
	// Optional data-dependent termination: `until expr relop expr`
	// (checked after each iteration).
	var breakIf *loopir.Cond
	if p.cur().kind == tokIdent && p.cur().text == "until" {
		p.pos++
		l, err := p.expr()
		if err != nil {
			return nil, err
		}
		op := p.cur()
		switch op.text {
		case "<", "<=", ">", ">=", "==", "!=":
			p.pos++
		default:
			return nil, p.errf(op, "expected comparison operator after until, found %q", op.text)
		}
		r, err := p.expr()
		if err != nil {
			return nil, err
		}
		breakIf = &loopir.Cond{Op: op.text, L: l, R: r}
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &loopir.Loop{Var: v.text, Lo: lo, Hi: hi, Body: body, BreakIf: breakIf}, nil
}

func (p *parser) ifStmt() (loopir.Stmt, error) {
	p.pos++ // "if"
	l, err := p.expr()
	if err != nil {
		return nil, err
	}
	op := p.cur()
	switch op.text {
	case "<", "<=", ">", ">=", "==", "!=":
		p.pos++
	default:
		return nil, p.errf(op, "expected comparison operator, found %q", op.text)
	}
	r, err := p.expr()
	if err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	out := &loopir.If{Cond: loopir.Cond{Op: op.text, L: l, R: r}, Then: then}
	if p.cur().kind == tokIdent && p.cur().text == "else" {
		p.pos++
		els, err := p.block()
		if err != nil {
			return nil, err
		}
		out.Else = els
	}
	return out, nil
}

func (p *parser) assign() (loopir.Stmt, error) {
	lhs, err := p.ref()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("="); err != nil {
		return nil, err
	}
	rhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return &loopir.Assign{LHS: lhs, RHS: rhs}, nil
}

func (p *parser) ref() (loopir.Ref, error) {
	name, err := p.expectIdent()
	if err != nil {
		return loopir.Ref{}, err
	}
	r := loopir.Ref{Array: name.text}
	if p.cur().text != "[" {
		return r, p.errf(p.cur(), "array reference %q needs subscripts", name.text)
	}
	for p.cur().text == "[" {
		p.pos++
		ix, err := p.iexpr()
		if err != nil {
			return loopir.Ref{}, err
		}
		r.Idx = append(r.Idx, ix)
		if _, err := p.expect("]"); err != nil {
			return loopir.Ref{}, err
		}
	}
	return r, nil
}

// --- integer (index) expressions ---

func (p *parser) iexpr() (loopir.IExpr, error) {
	l, err := p.iterm()
	if err != nil {
		return nil, err
	}
	for p.cur().text == "+" || p.cur().text == "-" {
		op := p.next().text
		r, err := p.iterm()
		if err != nil {
			return nil, err
		}
		if op == "+" {
			l = loopir.Iadd(l, r)
		} else {
			l = loopir.Isub(l, r)
		}
	}
	return l, nil
}

func (p *parser) iterm() (loopir.IExpr, error) {
	l, err := p.ifactor()
	if err != nil {
		return nil, err
	}
	for p.cur().text == "*" {
		p.pos++
		r, err := p.ifactor()
		if err != nil {
			return nil, err
		}
		l = loopir.Imul(l, r)
	}
	return l, nil
}

func (p *parser) ifactor() (loopir.IExpr, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.pos++
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, p.errf(t, "bad integer %q", t.text)
		}
		return loopir.Ic(n), nil
	case t.kind == tokIdent && !keywords[t.text]:
		p.pos++
		if p.cur().text != "[" {
			return loopir.Iv(t.text), nil
		}
		// Subscripted identifier in index position: a data-array read
		// (IArr), e.g. "rowlen[i]" as a loop bound.
		var idx []loopir.IExpr
		for p.cur().text == "[" {
			p.pos++
			e, err := p.iexpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			idx = append(idx, e)
		}
		return loopir.Ia(t.text, idx...), nil
	case t.text == "(":
		p.pos++
		e, err := p.iexpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.text == "-":
		p.pos++
		if num := p.cur(); num.kind == tokInt {
			p.pos++
			n, err := strconv.Atoi(num.text)
			if err != nil {
				return nil, p.errf(num, "bad integer %q", num.text)
			}
			return loopir.Ic(-n), nil
		}
		e, err := p.ifactor()
		if err != nil {
			return nil, err
		}
		return loopir.Isub(loopir.Ic(0), e), nil
	}
	return nil, p.errf(t, "expected index expression, found %q", t.text)
}

// --- float (data) expressions ---

func (p *parser) expr() (loopir.Expr, error) {
	l, err := p.fterm()
	if err != nil {
		return nil, err
	}
	for p.cur().text == "+" || p.cur().text == "-" {
		op := p.next().text
		r, err := p.fterm()
		if err != nil {
			return nil, err
		}
		if op == "+" {
			l = loopir.Fadd(l, r)
		} else {
			l = loopir.Fsub(l, r)
		}
	}
	return l, nil
}

func (p *parser) fterm() (loopir.Expr, error) {
	l, err := p.ffactor()
	if err != nil {
		return nil, err
	}
	for p.cur().text == "*" || p.cur().text == "/" {
		op := p.next().text
		r, err := p.ffactor()
		if err != nil {
			return nil, err
		}
		if op == "*" {
			l = loopir.Fmul(l, r)
		} else {
			l = loopir.Fdiv(l, r)
		}
	}
	return l, nil
}

func (p *parser) ffactor() (loopir.Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt || t.kind == tokFloat:
		p.pos++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf(t, "bad number %q", t.text)
		}
		return loopir.Fc(v), nil
	case t.kind == tokIdent && !keywords[t.text]:
		return p.ref()
	case t.text == "(":
		p.pos++
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.text == "-":
		p.pos++
		if num := p.cur(); num.kind == tokInt || num.kind == tokFloat {
			p.pos++
			v, err := strconv.ParseFloat(num.text, 64)
			if err != nil {
				return nil, p.errf(num, "bad number %q", num.text)
			}
			return loopir.Fc(-v), nil
		}
		e, err := p.ffactor()
		if err != nil {
			return nil, err
		}
		return loopir.Fsub(loopir.Fc(0), e), nil
	}
	return nil, p.errf(t, "expected expression, found %q", t.text)
}
