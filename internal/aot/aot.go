// Package aot closes the loop from compile.Plan to running native code:
// it takes the Go kernel functions emitted by internal/loopir, assembles
// them into a standalone one-file package, compiles and links it with the
// Go toolchain's own compile and link tools (the recipe go build
// -buildmode=plugin uses, without DWARF) into a plugin shared object, and
// opens it in process so the dlb runtime can dispatch to the emitted
// functions exactly like a compiled kernel. The tools' directory and the
// runtime's export files are probed from the go command once per process.
// A host that cannot build or open a plugin gets an error naming the
// remedy (the VM tier, -kernel kernel); there is no second load mode.
//
// Artifacts are cached on disk under os.UserCacheDir()/dlb-aot (override
// with DLB_AOT_CACHE), keyed by a sha256 of the emitted source, the Go
// version, GOARCH and the recipe's flags (which carry the race-detector
// state): repeat jobs of the same program skip the toolchain entirely and
// start in milliseconds. Concurrent builds of the same key are
// single-flighted both in-process (a memo) and across processes (a lock
// file).
package aot

import (
	"fmt"
	"time"

	"repro/internal/loopir"
)

// rawKernel is the builtin-typed signature emitted kernels export: the
// distributed range [lo,hi), free-variable values in the kernel's FreeVars
// order, and one flat storage slice per array in the kernel's Arrays
// order. Using only builtin types lets the function value cross the plugin
// boundary without named-type identity problems.
type rawKernel = func(lo, hi int, regs []int, data [][]float64)

// Region is one kernel-eligible region of a plan: the distributed loop
// variable and the loop body.
type Region struct {
	DistVar string
	Body    []loopir.Stmt
}

// Spec describes one AOT build request.
type Spec struct {
	// Prog and Params identify the program instance; array strides and
	// parameter values are baked into the emitted source, so they are part
	// of the cache key by construction.
	Prog   *loopir.Program
	Params map[string]int
	// Regions are the kernel-eligible regions to emit, one kernel per
	// region in order.
	Regions []Region
	// WholeBody emits a single kernel from Prog.Body instead of Regions
	// (benchmark use).
	WholeBody bool
	// CacheDir overrides the on-disk cache root (tests and benchmarks).
	CacheDir string
}

// BuildInfo records how a Program came to be, for logs and benchmarks.
type BuildInfo struct {
	// Key is the full cache key (hex sha256).
	Key string
	// Mode is the load mode, always ModePlugin.
	Mode string
	// Warm reports that an existing artifact was loaded without invoking
	// the Go toolchain.
	Warm bool
	// Memo reports that the whole Program was served from the in-process
	// memo (implies Warm).
	Memo bool
	// Dir is the cache directory holding source and artifact.
	Dir string
	// EmitDur, BuildDur and LoadDur split the build wall time: emission +
	// hashing, the toolchain's whole part of a cold build (zero when warm),
	// artifact load.
	EmitDur, BuildDur, LoadDur time.Duration
	// ProbeDur, CompileDur and LinkDur are where BuildDur went: asking the
	// go command for the toolchain (once per process), compiling the
	// kernels, linking the plugin.
	ProbeDur, CompileDur, LinkDur time.Duration
}

func (i BuildInfo) String() string {
	ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	return fmt.Sprintf("aot: key=%s mode=%s warm=%v emit=%s build=%s (probe=%s compile=%s link=%s) load=%s",
		i.Key[:16], i.Mode, i.Warm, i.EmitDur.Round(time.Microsecond),
		ms(i.BuildDur), ms(i.ProbeDur), ms(i.CompileDur), ms(i.LinkDur),
		i.LoadDur.Round(time.Microsecond))
}

// Program is a built and loaded AOT artifact: one native kernel per
// requested region.
type Program struct {
	Kernels []*Kernel
	Info    BuildInfo
}

// Kernel is one loaded native kernel.
type Kernel struct {
	// Meta is the emitter's description: the data/regs layout.
	Meta *loopir.EmittedKernel

	fn rawKernel
}

// BoundKernel is a Kernel bound to a concrete instance's arrays, ready to
// run with its free variables read from a run's integer frame.
type BoundKernel struct {
	K     *Kernel
	data  [][]float64
	slots []int // each free variable's frame slot (Frame)
	regs  []int // reused per call: one BoundKernel serves one caller
}

// Bind resolves the kernel's data slots against an instance's arrays.
func (k *Kernel) Bind(arrays map[string]*loopir.Array) (*BoundKernel, error) {
	data := make([][]float64, len(k.Meta.Arrays))
	for i, name := range k.Meta.Arrays {
		a, ok := arrays[name]
		if !ok {
			return nil, fmt.Errorf("aot: kernel %s: no array %q in instance", k.Meta.Name, name)
		}
		data[i] = a.Data
	}
	return &BoundKernel{K: k, data: data}, nil
}

// Frame resolves the kernel's free variables to slots of f, the layout
// of the frames Run is given.
func (b *BoundKernel) Frame(f loopir.Frame) {
	fv := b.K.Meta.FreeVars
	b.slots, b.regs = make([]int, len(fv)), make([]int, len(fv))
	for i, name := range fv {
		b.slots[i] = f.Slot(name)
	}
}

// Run executes iterations [lo,hi). An empty range is the kernel's own
// business: emitted range loops bail out on hi <= lo exactly like the VM,
// and whole-body kernels ignore lo/hi entirely.
func (b *BoundKernel) Run(lo, hi int, frame []int) {
	for i, s := range b.slots {
		b.regs[i] = frame[s]
	}
	b.K.fn(lo, hi, b.regs, b.data)
}
