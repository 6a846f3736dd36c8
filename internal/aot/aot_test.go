package aot

import (
	"bytes"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compile"
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

// freshProgram copies a library program under a name no other build in
// this process has used, so its artifact is new: a test that builds cold
// into a fresh cache directory must not load a second plugin under the
// path of one already loaded, which the runtime refuses.
func freshProgram(name string) *loopir.Program {
	q := *loopir.Library()[name]
	q.Name = fmt.Sprintf("%s-%d", name, freshCount.Add(1))
	return &q
}

var freshCount atomic.Int64

// TestWholeBodyDifferential builds every library program's whole body as
// a native kernel and checks the result is bit-identical to both the
// tree-walking interpreter and the postfix-VM kernel.
func TestWholeBodyDifferential(t *testing.T) {
	for name, p := range loopir.Library() {
		p, params := p, libraryParams[name]
		t.Run(name, func(t *testing.T) {
			ref := instance(t, p, params)
			if err := ref.Interpret(); err != nil {
				t.Fatal(err)
			}
			vm := instance(t, p, params)
			if err := vm.Run(); err != nil {
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

// libraryParams sizes each library program for the region tests: small,
// but with every loop running more than one iteration.
var libraryParams = map[string]map[string]int{
	"mm":              {"n": 12},
	"sor":             {"n": 14, "maxiter": 4},
	"lu":              {"n": 12},
	"jacobi":          {"n": 12, "maxiter": 3},
	"threshold-relax": {"n": 10, "maxiter": 3},
	"axpy":            {"n": 50, "maxiter": 4},
	"periodic-sor":    {"n": 14, "maxiter": 4},
	"jacobi-converge": {"n": 12, "maxiter": 60},
	"jacobi3d":        {"n": 8, "maxiter": 2},
	"spmv":            {"n": 96, "maxiter": 2},
	"pbin":            {"n": 48, "maxiter": 2},
}

// libraryPlan compiles a library program under its derived directive,
// the plan whose compile.KernelRegions a slave builds natively.
func libraryPlan(t *testing.T, name string) *compile.Plan {
	t.Helper()
	plan, err := compile.Compile(loopir.Library()[name], compile.Options{})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return plan
}

func regionsOf(loops []*compile.OwnedLoop) []Region {
	regions := make([]Region, len(loops))
	for i, l := range loops {
		regions[i] = Region{DistVar: l.Var, Body: l.Body}
	}
	return regions
}

// enclosing returns the loops around the loop over v, outermost first.
func enclosing(t *testing.T, body []loopir.Stmt, v string) []*loopir.Loop {
	t.Helper()
	var out []*loopir.Loop
	found := false
	loopir.Walk(body, func(s loopir.Stmt, loops []*loopir.Loop) error {
		if l, ok := s.(*loopir.Loop); ok && l.Var == v {
			out, found = append([]*loopir.Loop(nil), loops...), true
		}
		return nil
	})
	if !found {
		t.Fatalf("no loop over %q", v)
	}
	return out
}

// bound evaluates a loop bound under the parameters and the enclosing
// loops' variables.
func bound(t *testing.T, e loopir.IExpr, env map[string]int) int {
	t.Helper()
	a, err := loopir.AffineOf(e, env)
	if err != nil || len(a.Terms) != 0 {
		t.Fatalf("bound %v does not fold under %v: %v", e, env, err)
	}
	return a.Const
}

// TestRegionKernelMatchesVM runs every kernel region of every library
// program natively, at every iteration of the loops around it, over two
// adjacent sub-ranges — a slave's contiguous owned runs — and holds the
// arrays bit-identical to the VM's range kernel run over the whole range.
// The regions cover unit-step windows (the Jacobi family, axpy), strided
// windows (sor, periodic-sor, lu), a second stride beside a window (mm)
// and guarded sites (threshold-relax).
func TestRegionKernelMatchesVM(t *testing.T) {
	for name := range loopir.Library() {
		name, params := name, libraryParams[name]
		t.Run(name, func(t *testing.T) {
			plan := libraryPlan(t, name)
			loops := compile.KernelRegions(plan)
			prog, err := Build(Spec{Prog: plan.Prog, Params: params, Regions: regionsOf(loops)})
			if err != nil {
				t.Fatal(err)
			}
			vm, native := instance(t, plan.Prog, params), instance(t, plan.Prog, params)
			for i, l := range loops {
				rk, err := vm.CompileRangeKernel(l.Var, l.Body)
				if err != nil {
					t.Fatal(err)
				}
				bk, err := prog.Kernels[i].Bind(native.Arrays)
				if err != nil {
					t.Fatal(err)
				}
				bk.Frame(vm.Frame)
				outer := enclosing(t, plan.Prog.Body, l.Var)
				env := maps.Clone(params)
				var visit func(d int)
				visit = func(d int) {
					if d == len(outer) {
						lo, hi := bound(t, l.Lo, env), bound(t, l.Hi, env)
						mid := lo + (hi-lo)/2
						frame := make([]int, len(vm.Frame))
						for name, s := range vm.Frame {
							frame[s] = env[name]
						}
						rk.Run(lo, hi, frame)
						bk.Run(lo, mid, frame)
						bk.Run(mid, hi, frame)
						return
					}
					o := outer[d]
					for v := bound(t, o.Lo, env); v < bound(t, o.Hi, env); v++ {
						env[o.Var] = v
						visit(d + 1)
					}
					delete(env, o.Var)
				}
				visit(0)
				sameArrays(t, fmt.Sprintf("vm vs aot region %s", l.Var), vm, native)
			}
		})
	}
}

// TestOutOfRangePanicsWithTheEmittersMessage: a native region kernel run
// over a range that runs past its arrays stops at the emitter's entry
// check of the distributed variable against its hull, which names the
// variable and the hull, before any access or reslice of that loop: a
// runtime bounds error would name neither.
func TestOutOfRangePanicsWithTheEmittersMessage(t *testing.T) {
	p := loopir.Library()["jacobi"]
	params := testParams(p, 16)
	prog, err := Build(Spec{Prog: p, Params: params, Regions: []Region{jacobiSweepRegion(t, p)}})
	if err != nil {
		t.Fatal(err)
	}
	n := params["n"]
	for _, r := range []struct{ lo, hi int }{{1, n + 3}, {-2, 3}} {
		bk, err := prog.Kernels[0].Bind(instance(t, p, params).Arrays)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if msg != fmt.Sprintf("dlbaot: variable \"i\" out of range [1,%d]", n-2) {
					t.Errorf("Run(%d, %d) on n=%d panicked with %q, want the emitter's out-of-range message", r.lo, r.hi, n, msg)
				}
			}()
			bk.Run(r.lo, r.hi, nil)
		}()
	}
}

// TestIndexArrayPastItsDimension: pbin at n=8 with cnt[2] = 65 reads
// px[2][64], one past px's 64 columns, at a flat offset still inside px.
// Interpret errors at dim 1; the VM and the native kernel must each panic
// naming px and dim 1 instead of reading row 3.
func TestIndexArrayPastItsDimension(t *testing.T) {
	p := loopir.Library()["pbin"]
	params := map[string]int{"n": 8, "maxiter": 1}
	prog, err := Build(Spec{Prog: p, Params: params, WholeBody: true})
	if err != nil {
		t.Fatal(err)
	}
	overrun := func() *loopir.Instance {
		in := instance(t, p, params)
		in.Arrays["cnt"].SetAt(65, 2)
		return in
	}
	if err := overrun().Interpret(); err == nil || !strings.Contains(err.Error(), `array "px" index 64 out of range [0,64) in dim 1`) {
		t.Fatalf("Interpret: %v, want px's dim 1 out of range", err)
	}
	vm := overrun()
	native, err := prog.Kernels[0].Bind(overrun().Arrays)
	if err != nil {
		t.Fatal(err)
	}
	for tier, run := range map[string]func(){
		"vm":     func() { vm.Run() },
		"native": func() { native.Run(0, 0, nil) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `"px"`) || !strings.Contains(msg, "dim 1") {
					t.Errorf("%s panicked with %q, want one naming px and dim 1", tier, msg)
				}
			}()
			run()
		}()
	}
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
// package is kernels.go alone and imports nothing, so the plugin links the
// kernels and the runtime only (a single standard-library import such as
// encoding/gob doubles the build time and the artifact size) and the
// compile needs no importcfg.
func TestEmittedPackageImportFree(t *testing.T) {
	for name, p := range loopir.Library() {
		e, err := emitSpec(Spec{Prog: p, Params: testParams(p, 12), WholeBody: true})
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(token.NewFileSet(), "kernels.go", e.src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Imports) != 0 {
			t.Fatalf("%s: kernels.go imports %s; the emitted package must stay import-free", name, f.Imports[0].Path.Value)
		}
	}
}

// TestToolchainUnavailable: a host with no usable Go toolchain gets an
// error that names the remedy, not a panic and not a slower executor —
// even in a process that has already built with a toolchain that has since
// gone, once ClearMemory has dropped the probe.
func TestToolchainUnavailable(t *testing.T) {
	defer ClearMemory() // do not leave the memoised failure behind
	ClearMemory()
	p := freshProgram("jacobi")
	spec := Spec{Prog: p, Params: testParams(p, 14), WholeBody: true, CacheDir: t.TempDir()}
	if _, err := Build(spec); err != nil {
		t.Fatal(err)
	}

	ClearMemory()
	empty := t.TempDir()
	t.Setenv("PATH", empty)
	t.Setenv("GOROOT", empty)
	spec.Prog, spec.CacheDir = freshProgram("jacobi"), t.TempDir()
	_, err := Build(spec)
	if err == nil {
		t.Fatal("Build succeeded with no go binary reachable")
	}
	if !strings.Contains(err.Error(), "-kernel kernel") {
		t.Fatalf("error does not name the remedy: %v", err)
	}
}

// TestFailedProbeIsMemoized: on a host without a usable toolchain the
// probe runs once per process, not once per artifact key, and a build it
// fails writes no source; ClearMemory forgets the failure.
func TestFailedProbeIsMemoized(t *testing.T) {
	defer ClearMemory() // do not leave the memoised failure behind
	ClearMemory()
	empty := t.TempDir()
	t.Setenv("PATH", empty)
	t.Setenv("GOROOT", empty)
	probeMu.Lock()
	before := probes
	probeMu.Unlock()
	for i := 0; i < 3; i++ {
		p, cache := freshProgram("jacobi"), t.TempDir()
		if _, err := Build(Spec{Prog: p, Params: testParams(p, 14), WholeBody: true, CacheDir: cache}); err == nil ||
			!strings.Contains(err.Error(), "-kernel kernel") {
			t.Fatalf("build %d: got %v, want the error naming -kernel kernel", i, err)
		}
		if src, _ := filepath.Glob(filepath.Join(cache, "*", "src")); len(src) != 0 {
			t.Errorf("build %d: a failed probe still wrote %v", i, src)
		}
	}
	probeMu.Lock()
	ran := probes - before
	probeMu.Unlock()
	if ran != 1 {
		t.Errorf("three keys on a host without a toolchain probed %d times, want 1", ran)
	}
	ClearMemory()
	if _, err := probe(nil); err == nil {
		t.Fatal("probe succeeded with no go binary reachable")
	}
	probeMu.Lock()
	ran = probes - before
	probeMu.Unlock()
	if ran != 2 {
		t.Errorf("after ClearMemory the probe ran %d times in all, want 2", ran)
	}
}

// TestToolchainVersionMismatch: a go command of another release than the
// running binary is refused at the probe, naming both releases, before
// anything is compiled; plugin.Open would only say "different version of
// package runtime".
func TestToolchainVersionMismatch(t *testing.T) {
	bin := t.TempDir()
	fake := "#!/bin/sh\nprintf '%s\\n' /nonexistent/tool go1.0-fake /nonexistent/goroot gcc\n"
	if err := os.WriteFile(filepath.Join(bin, "go"), []byte(fake), 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("PATH", bin)
	defer ClearMemory()
	ClearMemory()
	p := loopir.Library()["jacobi"]
	_, err := Build(Spec{Prog: p, Params: testParams(p, 14), WholeBody: true, CacheDir: t.TempDir()})
	if err == nil {
		t.Fatal("Build succeeded with a go command of another release")
	}
	for _, want := range []string{"go1.0-fake", runtime.Version(), "-kernel kernel"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error does not name %q: %v", want, err)
		}
	}
}

// TestStaleDependencySetReprobes: the probe's export files live in the Go
// build cache, which go trims. A link against a file that has gone
// re-probes once and builds a kernel that runs.
func TestStaleDependencySetReprobes(t *testing.T) {
	defer ClearMemory()
	ClearMemory()
	if _, err := probe(nil); err != nil {
		t.Fatal(err)
	}
	probeMu.Lock()
	stale := *probed
	stale.deps = append([]string(nil), probed.deps...)
	found := false
	for i, line := range stale.deps {
		if strings.HasPrefix(line, "packagefile runtime=") {
			stale.deps[i] = "packagefile runtime=" + filepath.Join(t.TempDir(), "trimmed-d")
			found = true
		}
	}
	probed = &stale
	before := probes
	probeMu.Unlock()
	if !found {
		t.Fatalf("no runtime line in the dependency set %q", stale.deps)
	}

	p := freshProgram("axpy")
	params := testParams(p, 12)
	prog, err := Build(Spec{Prog: p, Params: params, WholeBody: true, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	probeMu.Lock()
	reprobes := probes - before
	probeMu.Unlock()
	if reprobes != 1 {
		t.Fatalf("%d re-probes, want 1", reprobes)
	}
	ref := instance(t, p, params)
	if err := ref.Interpret(); err != nil {
		t.Fatal(err)
	}
	native := instance(t, p, params)
	bk, err := prog.Kernels[0].Bind(native.Arrays)
	if err != nil {
		t.Fatal(err)
	}
	bk.Run(0, 0, nil)
	sameArrays(t, "interp vs aot after a re-probe", ref, native)
}

// TestConcurrentColdBuildsProbeOnce: cold builds of different programs
// running at once share one probe, and each loads a kernel.
func TestConcurrentColdBuildsProbeOnce(t *testing.T) {
	defer ClearMemory()
	ClearMemory()
	probeMu.Lock()
	before := probes
	probeMu.Unlock()
	names := []string{"axpy", "mm", "sor"}
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		i, p := i, freshProgram(name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = Build(Spec{Prog: p, Params: testParams(p, 8), WholeBody: true, CacheDir: t.TempDir()})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
	}
	probeMu.Lock()
	n := probes - before
	probeMu.Unlock()
	if n != 1 {
		t.Fatalf("%d probes for %d concurrent cold builds, want 1", n, len(names))
	}
}

// TestRecipeIsTheToolchains holds the recipe to the installed toolchain:
// go build -n -buildmode=plugin on an emitted package must print the same
// compile and link flags, and link the same packages, modulo what differs
// per build by design — paths under $WORK, build IDs, the compiler's
// backend concurrency (-c, which leaves the object file as it is), the
// runtime's GODEBUG default (a plugin shares the host's runtime) and the
// recipe's own -w. A Go release that changes the plugin recipe fails here,
// not in plugin.Open on some daemon.
func TestRecipeIsTheToolchains(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	tc, err := probe(nil)
	if err != nil {
		t.Fatal(err)
	}
	p := loopir.Library()["jacobi"]
	e, err := emitSpec(Spec{Prog: p, Params: testParams(p, 12), WholeBody: true})
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgPath(cacheKey(e))
	dir := t.TempDir()
	gomod := "module " + pkg + "\n\ngo " + strings.TrimPrefix(langVersion, "go") + "\n"
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "kernels.go"), []byte(e.src), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"build", "-n", "-buildmode=plugin", "-o", "kernel.so"}
	if raceEnabled {
		args = append(args, "-race")
	}
	cmd := exec.Command(goBin, append(args, ".")...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "CGO_ENABLED=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -n: %v\n%s", err, out)
	}
	script := string(out)

	for _, c := range []struct {
		tool string
		ours []string
	}{
		{"compile", compileArgs(tc, pkg, dir, "kernels.a")},
		{"link", linkArgs(tc, pkg, "importcfg.link", "kernels.a", "kernel.so")},
	} {
		theirs := invocation(t, script, filepath.Join(tc.toolDir, c.tool), pkg)
		if got, want := recipeOf(c.ours), recipeOf(theirs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s recipe %v, go build's %v", c.tool, got, want)
		}
	}

	ours := []string{pkg}
	for _, line := range tc.deps {
		path, _, _ := strings.Cut(strings.TrimPrefix(line, "packagefile "), "=")
		ours = append(ours, path)
	}
	sort.Strings(ours)
	if theirs := linkedPackages(script); !reflect.DeepEqual(ours, theirs) {
		t.Errorf("the link reads %v, go build's %v", ours, theirs)
	}
}

// invocation returns the arguments of the one line of a go build -n
// script that runs tool for package pkg.
func invocation(t *testing.T, script, tool, pkg string) []string {
	t.Helper()
	var found []string
	for _, line := range strings.Split(script, "\n") {
		f := strings.Fields(line)
		for len(f) > 0 && !strings.HasPrefix(f[0], "/") && strings.Contains(f[0], "=") {
			f = f[1:] // an environment assignment such as GOROOT='...'
		}
		if len(f) == 0 || f[0] != tool || !strings.Contains(line, " "+pkg+" ") {
			continue
		}
		if found != nil {
			t.Fatalf("two %s lines for %s in\n%s", tool, pkg, script)
		}
		for _, a := range f[1:] {
			found = append(found, strings.Trim(a, `"'`))
		}
	}
	if found == nil {
		t.Fatalf("no %s line for %s in\n%s", tool, pkg, script)
	}
	return found
}

// recipeOf reduces a tool's arguments to the recipe: each flag with its
// value, less input files, paths, build IDs, -c, the GODEBUG default and -w.
func recipeOf(args []string) []string {
	var set []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case !strings.HasPrefix(a, "-"): // an input file
		case a == "-o" || a == "-importcfg" || a == "-trimpath" || a == "-buildid":
			i++
		case a == "-w" || strings.HasPrefix(a, "-buildid=") || strings.HasPrefix(a, "-c=") ||
			strings.HasPrefix(a, "-X=runtime.godebugDefault="):
		case a == "-p" || a == "-goversion" || a == "-installsuffix" || a == "-pluginpath":
			set = append(set, a+" "+args[i+1])
			i++
		default:
			set = append(set, a)
		}
	}
	sort.Strings(set)
	return set
}

// linkedPackages lists the import paths of a go build -n script's link
// importcfg, sorted.
func linkedPackages(script string) []string {
	var paths []string
	in := false
	for _, line := range strings.Split(script, "\n") {
		switch {
		case strings.HasPrefix(line, "cat >") && strings.Contains(line, "importcfg.link"):
			in = true
		case line == "EOF":
			in = false
		case in && strings.HasPrefix(line, "packagefile "):
			path, _, _ := strings.Cut(strings.TrimPrefix(line, "packagefile "), "=")
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	return paths
}

// TestReproducibleArtifact: the same emitted package built twice into two
// fresh cache directories gives byte-identical plugins, and a key's
// directory holds src/kernels.go and kernel.so and nothing else.
func TestReproducibleArtifact(t *testing.T) {
	p := loopir.Library()["jacobi"]
	e, err := emitSpec(Spec{Prog: p, Params: testParams(p, 10), WholeBody: true})
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(e)
	var sos [][]byte
	for _, parent := range []string{"c", "a-longer-cache-root"} {
		dir := filepath.Join(t.TempDir(), parent, key[:16])
		var info BuildInfo
		if err := buildArtifact(e.src, key, dir, &info); err != nil {
			t.Fatal(err)
		}
		var files []string
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				rel, _ := filepath.Rel(dir, path)
				files = append(files, filepath.ToSlash(rel))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"kernel.so", "src/kernels.go"}; !reflect.DeepEqual(files, want) {
			t.Fatalf("the key directory holds %v, want %v", files, want)
		}
		so, err := os.ReadFile(filepath.Join(dir, "kernel.so"))
		if err != nil {
			t.Fatal(err)
		}
		sos = append(sos, so)
	}
	if !bytes.Equal(sos[0], sos[1]) {
		t.Fatalf("two builds of one package differ (%d and %d bytes)", len(sos[0]), len(sos[1]))
	}
}

// TestKernelsAttributable: without DWARF a loaded kernel still has its
// name and file in the pclntab, which is what pprof reads.
func TestKernelsAttributable(t *testing.T) {
	p := loopir.Library()["mm"]
	prog, err := Build(Spec{Prog: p, Params: testParams(p, 8), WholeBody: true})
	if err != nil {
		t.Fatal(err)
	}
	fn := runtime.FuncForPC(reflect.ValueOf(prog.Kernels[0].fn).Pointer())
	if fn == nil {
		t.Fatal("no function at the kernel's entry")
	}
	if want := pkgPath(prog.Info.Key) + ".Kernel0"; fn.Name() != want {
		t.Fatalf("the kernel is named %q, want %q", fn.Name(), want)
	}
	if file, _ := fn.FileLine(fn.Entry()); file != "kernels.go" {
		t.Fatalf("the kernel's file is %q, want kernels.go", file)
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

// TestEmittedSourceFormatted: the emitted kernels.go of every library
// program must already be gofmt-clean — generated code is readable Go,
// not just compilable Go.
func TestEmittedSourceFormatted(t *testing.T) {
	for name, p := range loopir.Library() {
		p := p
		t.Run(name, func(t *testing.T) {
			e, err := emitSpec(Spec{Prog: p, Params: testParams(p, 12), WholeBody: true})
			if err != nil {
				t.Fatal(err)
			}
			formatted, err := format.Source([]byte(e.src))
			if err != nil {
				t.Fatalf("kernels.go does not parse: %v", err)
			}
			if string(formatted) != e.src {
				t.Fatalf("kernels.go is not gofmt-clean:\n--- emitted ---\n%s\n--- gofmt ---\n%s",
					e.src, formatted)
			}
		})
	}
}

// TestEmittedSourceVets writes each library program's kernels.go and runs
// go vet on the file.
func TestEmittedSourceVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	for name, p := range loopir.Library() {
		p := p
		t.Run(name, func(t *testing.T) {
			e, err := emitSpec(Spec{Prog: p, Params: testParams(p, 12), WholeBody: true})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "kernels.go"), []byte(e.src), 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(goBin, "vet", "kernels.go")
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("go vet: %v\n%s", err, out)
			}
		})
	}
}
