package dlb

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/lang"
	"repro/internal/loopir"
)

// libraryParams sizes a library program for a 3-slave differential run.
func libraryParams(prog *loopir.Program) map[string]int {
	n := 16
	switch prog.Name {
	case "spmv":
		n = 96 // its row loop skips 32 rows at each edge
	case "jacobi3d":
		n = 8
	}
	params := map[string]int{}
	for _, prm := range prog.Params {
		params[prm] = n
		if prm == "maxiter" {
			params[prm] = 3
		}
	}
	return params
}

// derivedWant is, per library program, the directive it was first written
// with, which the derivation must find (TestDerivedDirectives) and which
// FuzzCompileRun gives Compile.
var derivedWant = func() map[string]depend.DistSpec {
	dist := func(dims map[string]int, loops ...string) depend.DistSpec {
		return depend.DistSpec{Dims: dims, Loops: loops}
	}
	return map[string]depend.DistSpec{
		"mm":              dist(map[string]int{"c": 1, "b": 1}, "j"),
		"lu":              dist(map[string]int{"a": 1}, "j"),
		"sor":             dist(map[string]int{"b": 0}, "j"),
		"periodic-sor":    dist(map[string]int{"b": 0}, "j"),
		"axpy":            dist(map[string]int{"x": 0, "y": 0}, "i"),
		"threshold-relax": dist(map[string]int{"v": 1}, "j"),
		"spmv":            dist(map[string]int{"y": 0, "val": 0}, "i"),
		"pbin":            dist(map[string]int{"f": 0, "px": 0}, "i"),
		"jacobi":          dist(map[string]int{"a": 0, "anew": 0}, "i", "i2"),
		"jacobi-converge": dist(map[string]int{"a": 0, "anew": 0}, "i", "i2"),
		"jacobi3d":        dist(map[string]int{"u": 0, "unew": 0}, "i", "i2"),
	}
}()

// TestDerivedDirectives compiles every library program with no directive.
// The want table holds the directives the programs were first written
// with, and the derivation must find each and render the same plan text.
// The Jacobi family's rows are not the first proposal: the columns it
// proposes first leave the ghost exchange exposed before a sequential loop,
// and the rows overlap it. Every derived plan gathers bit-exact on the
// simulator and on RunReal.
func TestDerivedDirectives(t *testing.T) {
	want := derivedWant
	for name, prog := range loopir.Library() {
		t.Run(name, func(t *testing.T) {
			plan, err := compile.Compile(prog, compile.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plan.Dist, want[name]) {
				t.Fatalf("derived %+v, want %+v", plan.Dist, want[name])
			}
			given, err := compile.Compile(prog, compile.Options{Dist: want[name]})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Source != given.Source {
				t.Errorf("derived plan renders differently from the plan under %+v", want[name])
			}
			params := libraryParams(prog)
			runAndVerify(t, plan, params, Config{DLB: true}, cluster.Config{Slaves: 3})
			res, err := RunReal(Config{Plan: plan, Params: params, DLB: true}, 3)
			if err != nil {
				t.Fatal(err)
			}
			verifyRealPlan(t, res, plan, params)
		})
	}
}

// TestDerivedTransposes covers the two ways a nest can write arrays
// transposed. In one nest the loop that scans b's last dimension scans c's
// first, so c aligns on it and the plan runs bit-exact. Across two nests
// no one dimension serves both, and every derived directive would need
// per-element communication or a replicated read of distributed data:
// Compile refuses with ErrNoDistribution rather than gather a wrong array.
func TestDerivedTransposes(t *testing.T) {
	oneNest := mustParse(t, `program tr(n, maxiter)
array a[n][n] init hash(1);
array b[n][n];
array c[n][n];
for iter = 0 to maxiter {
    for i = 0 to n {
        for j = 0 to n {
            b[j][i] = a[i][j] + 1;
            c[i][j] = a[i][j] * 2;
        }
    }
}`)
	plan, err := compile.Compile(oneNest, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int{"a": 0, "b": 1, "c": 0}; !maps.Equal(plan.Dist.Dims, want) {
		t.Fatalf("derived %v, want %v", plan.Dist.Dims, want)
	}
	runAndVerify(t, plan, map[string]int{"n": 16, "maxiter": 3}, Config{DLB: true}, cluster.Config{Slaves: 3})

	twoNests := mustParse(t, `program tcopy(n, maxiter)
array a[n][n] init hash(1);
array c[n][n];
for iter = 0 to maxiter {
    for i = 1 to n {
        for j = 0 to n { c[j][i] = a[i][j] + a[i-1][j]; }
    }
    for i2 = 1 to n {
        for j2 = 0 to n { a[i2][j2] = c[j2][i2] * 0.5; }
    }
}`)
	if _, err := compile.Compile(twoNests, compile.Options{}); !errors.Is(err, compile.ErrNoDistribution) {
		t.Fatalf("two-nest transposed copy: err = %v, want ErrNoDistribution", err)
	}
}

func mustParse(t *testing.T, src string) *loopir.Program {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// directiveMutants returns every one-step mutant of a directive: drop one
// distributed array while another remains, move one distributed array to
// another of its dimensions, or distribute one replicated array along one
// of its dimensions. Mutants name no loops, so Compile derives them.
func directiveMutants(prog *loopir.Program, dims map[string]int) []map[string]int {
	var out []map[string]int
	mutate := func(edit func(map[string]int)) {
		m := maps.Clone(dims)
		edit(m)
		out = append(out, m)
	}
	names := make([]string, 0, len(dims))
	for arr := range dims {
		names = append(names, arr)
	}
	sort.Strings(names)
	for _, arr := range names {
		if len(dims) > 1 {
			mutate(func(m map[string]int) { delete(m, arr) })
		}
		for k := range prog.Array(arr).Dims {
			if k != dims[arr] {
				mutate(func(m map[string]int) { m[arr] = k })
			}
		}
	}
	for _, decl := range prog.Arrays {
		if _, ok := dims[decl.Name]; !ok {
			for k := range decl.Dims {
				mutate(func(m map[string]int) { m[decl.Name] = k })
			}
		}
	}
	return out
}

// TestDirectiveMutants starts from each library program's derived
// directive and requires every one-step mutant to be refused by Compile or
// to gather bit-exact on 3 simulated slaves: no directive, given or
// derived, may produce a silently wrong array.
func TestDirectiveMutants(t *testing.T) {
	var names []string
	for name := range loopir.Library() {
		names = append(names, name)
	}
	sort.Strings(names)
	total, refused := 0, 0
	for _, name := range names {
		prog := loopir.Library()[name]
		base := planFor(t, name).Dist.Dims
		for _, dims := range directiveMutants(prog, base) {
			total++
			t.Run(fmt.Sprintf("%s/%v", name, dims), func(t *testing.T) {
				plan, err := compile.Compile(prog, compile.Options{Dist: depend.DistSpec{Dims: dims}})
				if err != nil {
					refused++
					return
				}
				runAndVerify(t, plan, libraryParams(prog), Config{DLB: true}, cluster.Config{Slaves: 3})
			})
		}
	}
	if total != 38 {
		t.Errorf("%d mutants, want 38", total)
	}
	t.Logf("%d mutants: %d refused, %d ran", total, refused, total-refused)
}
