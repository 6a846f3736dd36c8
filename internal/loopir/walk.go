package loopir

import "errors"

// SkipBody, returned by a Walk visitor, skips the statement's nested
// statements (a Loop's body, both arms of an If); the walk goes on with the
// statement's next sibling.
var SkipBody = errors.New("loopir: skip body")

// Walk visits every statement of stmts, nested ones included, in program
// order: a Loop before its body, an If before its Then arm and then its Else
// arm. loops lists the loops enclosing s, outermost first; Walk reuses its
// backing array, so a visitor that keeps it must copy it. A visitor error
// other than SkipBody stops the walk, and Walk returns it.
//
// Every static pass over the IR is a Walk (with Reads for what a statement
// reads). The interpreter, the kernel compiler, the flop counts and the
// printers give each node its own meaning and keep their own descent.
func Walk(stmts []Stmt, visit func(s Stmt, loops []*Loop) error) error {
	return walk(stmts, make([]*Loop, 0, 8), visit)
}

func walk(stmts []Stmt, loops []*Loop, visit func(Stmt, []*Loop) error) error {
	for _, s := range stmts {
		if err := visit(s, loops); err == SkipBody {
			continue
		} else if err != nil {
			return err
		}
		switch s := s.(type) {
		case *Loop:
			if err := walk(s.Body, append(loops, s), visit); err != nil {
				return err
			}
		case *If:
			if err := walk(s.Then, loops, visit); err != nil {
				return err
			}
			if err := walk(s.Else, loops, visit); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reads calls visit on each data read of s, in the order InterpretObserved
// reports them: an Assign's right-hand side, an If's condition left operand
// first. A Loop reads nothing: bounds, subscripts and break conditions are
// control. A visit error stops the scan, and Reads returns it.
func Reads(s Stmt, visit func(r Ref) error) error {
	switch s := s.(type) {
	case *Assign:
		return exprReads(s.RHS, visit)
	case *If:
		return condReads(s.Cond, visit)
	}
	return nil
}

func condReads(c Cond, visit func(Ref) error) error {
	if err := exprReads(c.L, visit); err != nil {
		return err
	}
	return exprReads(c.R, visit)
}

func exprReads(e Expr, visit func(Ref) error) error {
	switch e := e.(type) {
	case Ref:
		return visit(e)
	case Bin:
		if err := exprReads(e.L, visit); err != nil {
			return err
		}
		return exprReads(e.R, visit)
	}
	return nil
}
