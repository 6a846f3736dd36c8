package lang

import (
	"fmt"
	"strings"

	"repro/internal/loopir"
)

// Format renders a program as canonical parseable source. Array
// initializers named by an InitSpec (every library program) round-trip
// through `init` clauses; an Init function with no spec is an opaque Go
// value that cannot be recovered and formats as zero initialization.
func Format(p *loopir.Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program %s(%s)\n", p.Ident(), strings.Join(p.Params, ", "))
	for _, a := range p.Arrays {
		fmt.Fprintf(&sb, "array %s", a.Name)
		for _, d := range a.Dims {
			fmt.Fprintf(&sb, "[%s]", formatIExpr(d))
		}
		if a.InitSpec != "" {
			fmt.Fprintf(&sb, " init %s", a.InitSpec)
		}
		sb.WriteString(";\n")
	}
	formatStmts(&sb, p.Body, 0)
	return sb.String()
}

func formatStmts(sb *strings.Builder, stmts []loopir.Stmt, depth int) {
	ind := strings.Repeat("    ", depth)
	for _, s := range stmts {
		switch s := s.(type) {
		case *loopir.Loop:
			if s.BreakIf != nil {
				fmt.Fprintf(sb, "%sfor %s = %s to %s until %s %s %s {\n", ind, s.Var,
					formatIExpr(s.Lo), formatIExpr(s.Hi),
					formatExpr(s.BreakIf.L), s.BreakIf.Op, formatExpr(s.BreakIf.R))
			} else {
				fmt.Fprintf(sb, "%sfor %s = %s to %s {\n", ind, s.Var, formatIExpr(s.Lo), formatIExpr(s.Hi))
			}
			formatStmts(sb, s.Body, depth+1)
			sb.WriteString(ind + "}\n")
		case *loopir.Assign:
			fmt.Fprintf(sb, "%s%s = %s;\n", ind, formatRef(s.LHS), formatExpr(s.RHS))
		case *loopir.If:
			fmt.Fprintf(sb, "%sif %s %s %s {\n", ind, formatExpr(s.Cond.L), s.Cond.Op, formatExpr(s.Cond.R))
			formatStmts(sb, s.Then, depth+1)
			if len(s.Else) > 0 {
				sb.WriteString(ind + "} else {\n")
				formatStmts(sb, s.Else, depth+1)
			}
			sb.WriteString(ind + "}\n")
		}
	}
}

func formatRef(r loopir.Ref) string {
	var sb strings.Builder
	sb.WriteString(r.Array)
	for _, ix := range r.Idx {
		fmt.Fprintf(&sb, "[%s]", formatIExpr(ix))
	}
	return sb.String()
}

// formatIExpr emits fully parenthesized index expressions so precedence is
// unambiguous and the formatter/parser round-trip is exact.
func formatIExpr(e loopir.IExpr) string {
	switch e := e.(type) {
	case loopir.ICon:
		return fmt.Sprintf("%d", int(e))
	case loopir.IVar:
		return string(e)
	case loopir.IBin:
		return fmt.Sprintf("(%s %c %s)", formatIExpr(e.L), e.Op, formatIExpr(e.R))
	case loopir.IArr:
		var sb strings.Builder
		sb.WriteString(e.Array)
		for _, ix := range e.Idx {
			fmt.Fprintf(&sb, "[%s]", formatIExpr(ix))
		}
		return sb.String()
	}
	return "?"
}

func formatExpr(e loopir.Expr) string {
	switch e := e.(type) {
	case loopir.Const:
		return fmt.Sprintf("%g", float64(e))
	case loopir.Ref:
		return formatRef(e)
	case loopir.Bin:
		return fmt.Sprintf("(%s %c %s)", formatExpr(e.L), e.Op, formatExpr(e.R))
	}
	return "?"
}
