package aot

import (
	"go/format"
	"go/parser"
	"go/token"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/loopir"
)

// testParams binds every parameter of a library program to a small value.
func testParams(p *loopir.Program, n int) map[string]int {
	params := map[string]int{}
	for _, prm := range p.Params {
		params[prm] = n
	}
	if _, ok := params["maxiter"]; ok {
		params["maxiter"] = 3
	}
	return params
}

func instance(t *testing.T, p *loopir.Program, params map[string]int) *loopir.Instance {
	t.Helper()
	in, err := loopir.NewInstance(p, params)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func sameArrays(t *testing.T, label string, want, got *loopir.Instance) {
	t.Helper()
	for name, w := range want.Arrays {
		g := got.Arrays[name]
		for i := range w.Data {
			if math.Float64bits(w.Data[i]) != math.Float64bits(g.Data[i]) {
				t.Fatalf("%s: array %q differs at %d: %v vs %v", label, name, i, w.Data[i], g.Data[i])
			}
		}
	}
}

// TestWholeBodyDifferential builds every library program's whole body as
// a native kernel and checks the result is bit-identical to both the
// tree-walking interpreter and the postfix-VM kernel.
func TestWholeBodyDifferential(t *testing.T) {
	for name, p := range loopir.Library() {
		p, params := p, testParams(p, 12)
		t.Run(name, func(t *testing.T) {
			if loopir.UsesIArr(p.Body) {
				t.Skip("data-dependent program runs interpreted, no kernels to compare")
			}
			ref := instance(t, p, params)
			if err := ref.Interpret(); err != nil {
				t.Fatal(err)
			}
			vm := instance(t, p, params)
			if err := vm.RunKernel(); err != nil {
				t.Fatal(err)
			}
			sameArrays(t, "interp vs kernel", ref, vm)

			prog, err := Build(Spec{Prog: p, Params: params, WholeBody: true})
			if err != nil {
				t.Fatal(err)
			}
			native := instance(t, p, params)
			bk, err := prog.Kernels[0].Bind(native.Arrays)
			if err != nil {
				t.Fatal(err)
			}
			bk.Run(0, 0, nil)
			sameArrays(t, "interp vs aot", ref, native)
		})
	}
}

// jacobiSweepRegion extracts the i-sweep of the jacobi program as a
// distributed region (the shape compile.KernelRegions produces).
func jacobiSweepRegion(t *testing.T, p *loopir.Program) Region {
	t.Helper()
	iter, ok := p.Body[0].(*loopir.Loop)
	if !ok {
		t.Fatalf("jacobi body[0] is %T", p.Body[0])
	}
	sweep, ok := iter.Body[0].(*loopir.Loop)
	if !ok {
		t.Fatalf("jacobi iter body[0] is %T", iter.Body[0])
	}
	return Region{DistVar: sweep.Var, Body: sweep.Body}
}

// TestRegionKernelMatchesVM checks that a region kernel run natively over
// two adjacent sub-ranges — a slave's contiguous owned runs — stays
// bit-identical to the VM's range kernel over the whole range.
func TestRegionKernelMatchesVM(t *testing.T) {
	p := loopir.Library()["jacobi"]
	params := testParams(p, 24)
	region := jacobiSweepRegion(t, p)

	prog, err := Build(Spec{Prog: p, Params: params, Regions: []Region{region}})
	if err != nil {
		t.Fatal(err)
	}
	vm := instance(t, p, params)
	rk, err := vm.CompileRangeKernel(region.DistVar, region.Body)
	if err != nil {
		t.Fatal(err)
	}
	n := params["n"]
	rk.Run(1, n-1, nil)

	native := instance(t, p, params)
	bk, err := prog.Kernels[0].Bind(native.Arrays)
	if err != nil {
		t.Fatal(err)
	}
	bk.Run(1, n/2, nil)
	bk.Run(n/2, n-1, nil)
	sameArrays(t, "vm vs aot region", vm, native)
}

// TestWarmStart measures the contractual cold/warm split: a second build
// of the same spec must hit the cache (no toolchain run) and the on-disk
// warm path — emit, hash, load — must come in under 50ms. Every handle a
// process obtains for one spec — cold, memo hit, reloaded after
// ClearMemory — must run, whatever became of the earlier ones.
func TestWarmStart(t *testing.T) {
	p := loopir.Library()["sor"]
	params := testParams(p, 16)
	spec := Spec{Prog: p, Params: params, WholeBody: true}
	ref := instance(t, p, params)
	if err := ref.Interpret(); err != nil {
		t.Fatal(err)
	}
	runs := func(label string, prog *Program) {
		t.Helper()
		native := instance(t, p, params)
		bk, err := prog.Kernels[0].Bind(native.Arrays)
		if err != nil {
			t.Fatal(err)
		}
		bk.Run(0, 0, nil)
		sameArrays(t, label, ref, native)
	}

	first, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	key := first.Info.Key
	if first.Info.Mode != ModePlugin {
		t.Fatalf("mode = %q, want %q", first.Info.Mode, ModePlugin)
	}

	memoHit, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !memoHit.Info.Warm || !memoHit.Info.Memo {
		t.Fatalf("second build not memo-warm: %+v", memoHit.Info)
	}
	runs("first handle", first)
	runs("memo handle", memoHit)

	ClearMemory()
	start := time.Now()
	diskWarm, err := Build(spec)
	warmDur := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !diskWarm.Info.Warm {
		t.Fatalf("post-ClearMemory build not disk-warm: %+v", diskWarm.Info)
	}
	if diskWarm.Info.Key != key {
		t.Fatalf("key changed across builds: %s vs %s", key, diskWarm.Info.Key)
	}
	if diskWarm.Info.BuildDur != 0 {
		t.Fatalf("warm build invoked the toolchain: %+v", diskWarm.Info)
	}
	if warmDur > 50*time.Millisecond {
		t.Fatalf("warm start took %s, want < 50ms", warmDur)
	}
	runs("reloaded handle", diskWarm)
	runs("first handle after ClearMemory", first)
}

// TestEmittedPackageImportFree guards the cold-build cost: the emitted
// package is go.mod plus kernels.go and imports nothing, so the plugin
// links the kernels and the runtime only (a single standard-library import
// such as encoding/gob doubles the build time and the artifact size).
func TestEmittedPackageImportFree(t *testing.T) {
	for name, p := range loopir.Library() {
		if loopir.UsesIArr(p.Body) {
			continue
		}
		e, err := emitSpec(Spec{Prog: p, Params: testParams(p, 12), WholeBody: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(e.files) != 2 || e.files["go.mod"] == "" || e.files["kernels.go"] == "" {
			var names []string
			for fname := range e.files {
				names = append(names, fname)
			}
			t.Fatalf("%s: emitted files %v, want exactly go.mod and kernels.go", name, names)
		}
		f, err := parser.ParseFile(token.NewFileSet(), "kernels.go", e.files["kernels.go"], parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Imports) != 0 {
			t.Fatalf("%s: kernels.go imports %s; the emitted package must stay import-free", name, f.Imports[0].Path.Value)
		}
	}
}

// TestToolchainUnavailable: a host with no usable Go toolchain gets an
// error that names the remedy, not a panic and not a slower executor.
func TestToolchainUnavailable(t *testing.T) {
	empty := t.TempDir()
	t.Setenv("PATH", empty)
	t.Setenv("GOROOT", empty)
	defer ClearMemory() // do not leave the memoised failure behind
	p := loopir.Library()["jacobi"]
	_, err := Build(Spec{Prog: p, Params: testParams(p, 14), WholeBody: true, CacheDir: t.TempDir()})
	if err == nil {
		t.Fatal("Build succeeded with no go binary reachable")
	}
	if !strings.Contains(err.Error(), "-kernel kernel") {
		t.Fatalf("error does not name the remedy: %v", err)
	}
}

// TestCacheKeySensitivity: parameters are baked into emitted source, so
// changing them must change the key.
func TestCacheKeySensitivity(t *testing.T) {
	p := loopir.Library()["mm"]
	a, err := emitSpec(Spec{Prog: p, Params: map[string]int{"n": 8}, WholeBody: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := emitSpec(Spec{Prog: p, Params: map[string]int{"n": 9}, WholeBody: true})
	if err != nil {
		t.Fatal(err)
	}
	if cacheKey(a) == cacheKey(b) {
		t.Fatal("different params produced the same cache key")
	}
}

// TestEmittedSourceFormatted: every emitted source file of every library
// program must already be gofmt-clean — generated code is readable Go,
// not just compilable Go.
func TestEmittedSourceFormatted(t *testing.T) {
	for name, p := range loopir.Library() {
		p := p
		t.Run(name, func(t *testing.T) {
			if loopir.UsesIArr(p.Body) {
				t.Skip("data-dependent program runs interpreted, nothing to emit")
			}
			e, err := emitSpec(Spec{Prog: p, Params: testParams(p, 12), WholeBody: true})
			if err != nil {
				t.Fatal(err)
			}
			for fname, content := range e.files {
				if filepath.Ext(fname) != ".go" {
					continue
				}
				formatted, err := format.Source([]byte(content))
				if err != nil {
					t.Fatalf("%s does not parse: %v", fname, err)
				}
				if string(formatted) != content {
					t.Fatalf("%s is not gofmt-clean:\n--- emitted ---\n%s\n--- gofmt ---\n%s",
						fname, content, formatted)
				}
			}
		})
	}
}

// TestEmittedSourceVets materializes each library program's emitted
// package and runs go vet over it.
func TestEmittedSourceVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	for name, p := range loopir.Library() {
		p := p
		t.Run(name, func(t *testing.T) {
			if loopir.UsesIArr(p.Body) {
				t.Skip("data-dependent program runs interpreted, nothing to emit")
			}
			e, err := emitSpec(Spec{Prog: p, Params: testParams(p, 12), WholeBody: true})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := writeSource(dir, e.files); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(goBin, "vet", ".")
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("go vet: %v\n%s", err, out)
			}
		})
	}
}
