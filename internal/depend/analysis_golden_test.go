package depend_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/loopir"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from current output")

// TestAnalysisGolden pins, for every library program, what the concrete
// dependence tracer concludes and what the compiler generates: the
// unattributed dependences, the owner-attributed ones and the trace's loop
// properties under the program's derived directive, and the plan source.
// The goldens were written while the compiler still read the trace, so
// they hold the static rules that replaced it to the plans it gave, and
// the tracer, now the tests' oracle, to byte-identical analysis.
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
			plan, err := compile.Compile(prog, compile.Options{})
			if err != nil {
				t.Fatal(err)
			}
			a, err := depend.Analyze(prog)
			if err != nil {
				t.Fatal(err)
			}
			unattributed, err := a.DepsFor(depend.DistSpec{})
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
			writeDeps(&sb, unattributed)
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

// checkGolden compares got against testdata/<name>.txt, rewriting the
// file when the test runs with -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("analysis differs from %s (rerun with -update if the change is intended):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}
