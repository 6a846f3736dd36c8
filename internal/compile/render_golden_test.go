package compile

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/loopir"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from current output")

// checkGolden compares got against testdata/<name>.txt, rewriting the
// file when the test runs with -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("rendered plan differs from %s (rerun with -update if the change is intended):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestRenderPlanGolden pins the full pseudo-source rendering of the
// library plans. The goldens replace scattered substring assertions: a
// rendering change shows up as a reviewable diff, not a missing keyword.
func TestRenderPlanGolden(t *testing.T) {
	cases := []struct {
		golden string
		prog   *loopir.Program
		opts   Options
	}{
		{"render_jacobi", loopir.Jacobi(), Options{Dist: specJacobi()}},
		{"render_sor", loopir.SOR(), Options{Dist: specSOR()}},
		{"render_mm", loopir.MatMul(), Options{Dist: specMM()}},
		{"render_lu", loopir.LU(), Options{Dist: specLU()}},
		{"render_jacobi_converge", loopir.JacobiConverge(), Options{Dist: specJacobi()}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.golden, func(t *testing.T) {
			p := mustCompile(t, c.prog, c.opts)
			if p.Source != RenderPlan(p) {
				t.Fatal("Plan.Source is not RenderPlan(p)")
			}
			checkGolden(t, c.golden, p.Source)
		})
	}
}

// TestRenderLibraryGolden pins the rendered plan of every library program
// under its LibraryDist directive — the text the cross-process plan hash is
// taken over. The files were written by the commit before exchange groups
// became one step, so a passing run is the proof that regrouping the step
// tree left every plan's text, and hash, where it was.
func TestRenderLibraryGolden(t *testing.T) {
	for name, prog := range loopir.Library() {
		t.Run(name, func(t *testing.T) {
			p := mustCompile(t, prog, Options{Dist: LibraryDist(name)})
			checkGolden(t, "render_"+strings.ReplaceAll(name, "-", "_"), p.Source)
		})
	}
}

// TestKernelRegions checks the stable kernel indexing contract: regions
// come back in program order and carry the distributed loop bodies.
func TestKernelRegions(t *testing.T) {
	p := mustCompile(t, loopir.Jacobi(), Options{Dist: specJacobi()})
	regions := KernelRegions(p)
	if len(regions) != 2 {
		t.Fatalf("jacobi has %d kernel regions, want 2 (sweep + copy-back)", len(regions))
	}
	if regions[0].Var != "i" || regions[1].Var != "i2" {
		t.Fatalf("region order = %s, %s; want i, i2", regions[0].Var, regions[1].Var)
	}
	p = mustCompile(t, loopir.SOR(), Options{Dist: specSOR()})
	regions = KernelRegions(p)
	if len(regions) != 1 {
		t.Fatalf("sor has %d kernel regions, want 1 (strip-mined pipeline body)", len(regions))
	}
}
