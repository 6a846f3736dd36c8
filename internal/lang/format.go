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
// Expressions print through their String methods, which parenthesize every
// binary operation, so precedence is unambiguous and the round trip exact.
func Format(p *loopir.Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program %s(%s)\n", p.Ident(), strings.Join(p.Params, ", "))
	for _, a := range p.Arrays {
		fmt.Fprintf(&sb, "array %s", a.Name)
		for _, d := range a.Dims {
			fmt.Fprintf(&sb, "[%s]", d)
		}
		if a.InitSpec != "" {
			fmt.Fprintf(&sb, " init %s", a.InitSpec)
		}
		sb.WriteString(";\n")
	}
	FormatStmts(&sb, p.Body, 0)
	return sb.String()
}

// FormatStmts writes statements in source syntax, indented four spaces per
// depth.
func FormatStmts(sb *strings.Builder, stmts []loopir.Stmt, depth int) {
	ind := strings.Repeat("    ", depth)
	for _, s := range stmts {
		switch s := s.(type) {
		case *loopir.Loop:
			fmt.Fprintf(sb, "%s%s {\n", ind, LoopHeader(s.Var, s.Lo, s.Hi, s.BreakIf))
			FormatStmts(sb, s.Body, depth+1)
			sb.WriteString(ind + "}\n")
		case *loopir.Assign:
			fmt.Fprintf(sb, "%s%s = %s;\n", ind, s.LHS, s.RHS)
		case *loopir.If:
			fmt.Fprintf(sb, "%sif %s {\n", ind, formatCond(s.Cond))
			FormatStmts(sb, s.Then, depth+1)
			if len(s.Else) > 0 {
				sb.WriteString(ind + "} else {\n")
				FormatStmts(sb, s.Else, depth+1)
			}
			sb.WriteString(ind + "}\n")
		}
	}
}

// LoopHeader is a loop's header in source syntax, without the opening
// brace: `for v = lo to hi`, then `until cond` when brk is set.
func LoopHeader(v string, lo, hi loopir.IExpr, brk *loopir.Cond) string {
	h := fmt.Sprintf("for %s = %s to %s", v, lo, hi)
	if brk != nil {
		h += " until " + formatCond(*brk)
	}
	return h
}

func formatCond(c loopir.Cond) string { return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R) }
