package aot

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/loopir"
)

// innerLoopChecks is every bounds check the compiler leaves in an
// innermost loop of an emitted kernel: one row per check, "program
// kernel: access", where kernel is a region's distributed variable or
// "whole". Each is paid at every point of that loop.
var innerLoopChecks = []struct{ row, reason string }{
	{"mm j: d1[o2]", "b[k][j] steps by n beside the window of the unit-step a[i][k]"},
	{"mm whole: d1[o2]", "b[k][j] steps by n beside the window of the unit-step a[i][k]"},
}

// TestEmittedInnerLoopsBoundsCheckFree compiles the emitted kernels.go of
// every library program — every compile.KernelRegions region, then the
// whole body — with the recipe's own compile flags plus the compiler's
// bounds-check report, files each reported check under the innermost loop
// body it falls in, and holds the set to innerLoopChecks. Checks outside
// innermost loops (the prologue's data[i] and regs[i], a window's reslice)
// run once per loop entry and are not counted.
func TestEmittedInnerLoopsBoundsCheckFree(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go binary on PATH")
	}
	tc, err := probe(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for name, p := range loopir.Library() {
		if loopir.UsesIArr(p.Body) {
			continue // derived subscripts keep their checks by design (ix and dX[oN])
		}
		plan := libraryPlan(t, name)
		regions := regionsOf(compile.KernelRegions(plan))
		for _, spec := range []Spec{
			{Prog: plan.Prog, Params: libraryParams[name], Regions: regions},
			{Prog: plan.Prog, Params: libraryParams[name], WholeBody: true},
		} {
			e, err := emitSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range innerChecks(t, tc, e.src) {
				kernel := "whole"
				if !spec.WholeBody {
					kernel = regions[c.kernel].DistVar
				}
				got = append(got, fmt.Sprintf("%s %s: %s", name, kernel, c.access))
			}
		}
	}
	var want []string
	for _, c := range innerLoopChecks {
		t.Logf("residual %-30s %s", c.row, c.reason)
		want = append(want, c.row)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("bounds checks in emitted inner loops:\n got %q\nwant %q", got, want)
	}
}

// innerCheck is one bounds check in an innermost loop: the index of its
// kernel function (KernelN) and the source text of the indexed access.
type innerCheck struct {
	kernel int
	access string
}

var bceLine = regexp.MustCompile(`(?m)^kernels\.go:(\d+):(\d+): Found IsInBounds$`)

// innerChecks compiles src as kernels.go with the recipe and the bounds
// check report and returns the reported checks that fall in an innermost
// loop body.
func innerChecks(t *testing.T, tc *toolchain, src string) []innerCheck {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "kernels.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	args := compileArgs(tc, "dlbaot/bce", dir, filepath.Join(dir, "kernels.a"))
	file := args[len(args)-1]
	args = append(args[:len(args)-1:len(args)-1], "-d=ssa/check_bce/debug=1", file)
	cmd := exec.Command(filepath.Join(tc.toolDir, "compile"), args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOROOT="+tc.goroot)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, out)
	}

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "kernels.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var checks []innerCheck
	for _, m := range bceLine.FindAllStringSubmatch(string(out), -1) {
		line, _ := strconv.Atoi(m[1])
		col, _ := strconv.Atoi(m[2])
		pos := fset.File(f.Pos()).LineStart(line) + token.Pos(col-1)
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || pos < fn.Pos() || pos > fn.End() {
				continue
			}
			if body := innermostLoop(fn.Body, pos); body != nil {
				k, err := strconv.Atoi(strings.TrimPrefix(fn.Name.Name, "Kernel"))
				if err != nil {
					t.Fatalf("check in %s, not a kernel", fn.Name.Name)
				}
				checks = append(checks, innerCheck{k, accessAt(src, fset, body, pos)})
			}
		}
	}
	return checks
}

// innermostLoop returns the body of the loop around pos that contains no
// other loop, or nil when pos is in no such loop.
func innermostLoop(root ast.Node, pos token.Pos) *ast.BlockStmt {
	var found *ast.BlockStmt
	ast.Inspect(root, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		default:
			return n == nil || pos >= n.Pos() && pos < n.End()
		}
		if pos < body.Lbrace || pos > body.Rbrace {
			return false
		}
		if !hasLoop(body) {
			found = body
		}
		return true
	})
	return found
}

func hasLoop(body *ast.BlockStmt) bool {
	loop := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loop = true
		}
		return !loop
	})
	return loop
}

// accessAt renders the innermost index expression around pos.
func accessAt(src string, fset *token.FileSet, body *ast.BlockStmt, pos token.Pos) string {
	var at *ast.IndexExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if ix, ok := n.(*ast.IndexExpr); ok && pos >= ix.X.Pos() && pos <= ix.Rbrack {
			at = ix
		}
		return true
	})
	if at == nil {
		return fmt.Sprintf("line %d", fset.Position(pos).Line)
	}
	return src[fset.Position(at.X.Pos()).Offset : fset.Position(at.Rbrack).Offset+1]
}
