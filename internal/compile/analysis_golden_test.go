package compile

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/depend"
	"repro/internal/loopir"
)

// TestAnalysisGolden pins, for every library program, what the concrete
// dependence tracer concludes and what the compiler generates from it: the
// unattributed dependences, the owner-attributed ones and the loop
// properties under the program's directive (LibraryDist, else the derived
// one), and the plan source. The goldens were written before the tracer
// stopped copying its environment per subscript, so they hold that rewrite
// — and any later one — to byte-identical analysis.
func TestAnalysisGolden(t *testing.T) {
	lib := loopir.Library()
	names := make([]string, 0, len(lib))
	for name := range lib {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prog := lib[name]
		t.Run(name, func(t *testing.T) {
			plan := mustCompile(t, prog, Options{Dist: LibraryDist(name)})
			a, err := depend.Analyze(prog)
			if err != nil {
				t.Fatal(err)
			}
			deps, err := a.DepsFor(plan.Dist)
			if err != nil {
				t.Fatal(err)
			}
			props, err := a.PropertiesFor(plan.Dist)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			sb.WriteString("== dependences\n")
			writeDeps(&sb, a.Deps())
			fmt.Fprintf(&sb, "== dependences under %+v\n", plan.Dist)
			writeDeps(&sb, deps)
			fmt.Fprintf(&sb, "== properties\n%+v\n== plan\n%s", props, plan.Source)
			checkGolden(t, "analysis_"+name, sb.String())
		})
	}
}

// writeDeps renders every field of each dependence; Dep.String alone omits
// the statement ids, the distance and the cross-owner flag.
func writeDeps(sb *strings.Builder, deps []depend.Dep) {
	for _, d := range deps {
		fmt.Fprintf(sb, "%s | stmts %d->%d distance %s cross-owner %v per-loop %v\n",
			d, d.SrcStmt, d.DstStmt, d.Distance, d.CrossOwner, d.PerLoop)
	}
}
