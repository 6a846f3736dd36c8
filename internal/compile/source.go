package compile

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/loopir"
)

// RenderPlan pretty-prints the generated SPMD slave program in the style of
// the paper's Figure 3 listings, with communication and hook calls visible.
func RenderPlan(p *Plan) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "/* generated SPMD program for %s */\n", p.Prog.Ident())
	fmt.Fprintf(&sb, "/* distributed:")
	arrs := make([]string, 0, len(p.DistArrays))
	for arr := range p.DistArrays {
		arrs = append(arrs, arr)
	}
	sort.Strings(arrs)
	for _, arr := range arrs {
		fmt.Fprintf(&sb, " %s(dim %d)", arr, p.DistArrays[arr])
	}
	if len(p.Replicated) > 0 {
		fmt.Fprintf(&sb, "; replicated: %s", strings.Join(p.Replicated, ", "))
	}
	mode := "unrestricted"
	if p.Restricted {
		mode = "restricted (block)"
	}
	fmt.Fprintf(&sb, "; movement: %s */\n", mode)
	renderSteps(&sb, p.Steps, 0)
	return sb.String()
}

func renderSteps(sb *strings.Builder, steps []Step, depth int) {
	ind := strings.Repeat("    ", depth)
	for _, s := range steps {
		switch s := s.(type) {
		case *SeqLoop:
			fmt.Fprintf(sb, "%sfor (%s = %s; %s < %s; %s++) {\n",
				ind, s.Var, s.Lo.String(), s.Var, s.Hi.String(), s.Var)
			renderSteps(sb, s.Body, depth+1)
			if s.BreakIf != nil {
				fmt.Fprintf(sb, "%s    if (%s %s %s) break;   /* data-dependent termination */\n",
					ind, s.BreakIf.L.String(), s.BreakIf.Op, s.BreakIf.R.String())
			}
			fmt.Fprintf(sb, "%s}\n", ind)
		case *StripLoop:
			fmt.Fprintf(sb, "%sfor (%s_blk = %s; %s_blk < %s; %s_blk += grain) {   /* strip mined */\n",
				ind, s.Var, s.Lo.String(), s.Var, s.Hi.String(), s.Var)
			renderSteps(sb, s.Pre, depth+1)
			fmt.Fprintf(sb, "%s    for (%s = %s_blk; %s < min(%s_blk + grain, %s); %s++) {\n",
				ind, s.Var, s.Var, s.Var, s.Var, s.Hi.String(), s.Var)
			renderSteps(sb, s.Body, depth+2)
			fmt.Fprintf(sb, "%s    }\n", ind)
			renderSteps(sb, s.Post, depth+1)
			fmt.Fprintf(sb, "%s}\n", ind)
		case *OwnedLoop:
			fmt.Fprintf(sb, "%sfor (%s in owned_active() ∩ [%s, %s)) {   /* distributed loop */\n",
				ind, s.Var, s.Lo.String(), s.Hi.String())
			var body strings.Builder
			loopir.RenderStmts(&body, s.Body, depth+1)
			sb.WriteString(body.String())
			fmt.Fprintf(sb, "%s}\n", ind)
		case *OwnerBlock:
			fmt.Fprintf(sb, "%sif (owner(%s) == pid) {   /* owner computes */\n", ind, s.Index.String())
			var body strings.Builder
			loopir.RenderStmts(&body, s.Body, depth+1)
			sb.WriteString(body.String())
			fmt.Fprintf(sb, "%s}\n", ind)
		case *AllStmts:
			var body strings.Builder
			loopir.RenderStmts(&body, s.Body, depth)
			sb.WriteString(body.String())
		case *Exchange:
			note := "old boundary values"
			if s.Overlap {
				note = "old boundary values; overlap: split-loop eligible"
			}
			for _, part := range s.Parts {
				fmt.Fprintf(sb, "%sexchange_ghost(%s, delta=%+d);   /* %s */\n", ind, part.Array, part.Delta, note)
			}
		case *PipeRecv:
			fmt.Fprintf(sb, "%sif (pid != first) recv_pipeline(%s, delta=%+d, rows=block);\n", ind, s.Array, s.Delta)
		case *PipeSend:
			fmt.Fprintf(sb, "%sif (pid != last) send_pipeline(%s, delta=%+d, rows=block);\n", ind, s.Array, s.Delta)
		case *Bcast:
			fmt.Fprintf(sb, "%sbroadcast_from_owner(%s, index=%s);\n", ind, s.Array, s.Index.String())
		case *Combine:
			fmt.Fprintf(sb, "%sall_reduce(%s, op='%c');   /* merge reduction partials */\n", ind, s.Array, s.Op)
		case *Hook:
			fmt.Fprintf(sb, "%slbhook%d();   /* level %d */\n", ind, s.ID, s.Level)
		}
	}
}
