package loopir

import (
	"sync"
	"testing"
	"unsafe"
)

func kernelTestParams() map[string]map[string]int {
	return map[string]map[string]int{
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
}

// TestKernelMatchesInterpreter is the core equivalence check: on every
// library program the compiled kernel must reproduce the tree-walking
// interpreter bit for bit — sequential kernels preserve even reduction
// chains exactly.
func TestKernelMatchesInterpreter(t *testing.T) {
	params := kernelTestParams()
	for name, prog := range Library() {
		prm, ok := params[name]
		if !ok {
			t.Fatalf("no test parameters for program %q", name)
		}
		ref, err := NewInstance(prog, prm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ref.Interpret(); err != nil {
			t.Fatalf("%s: interpret: %v", name, err)
		}
		fast := ref.Clone()
		k, err := fast.CompileKernel(fast.Prog.Body)
		if err != nil {
			t.Fatalf("%s: compile kernel: %v", name, err)
		}
		k.Run(nil)
		for arr := range ref.Arrays {
			if d := ref.Arrays[arr].MaxAbsDiff(fast.Arrays[arr]); d != 0 {
				t.Errorf("%s: array %q differs by %g between interpreter and kernel", name, arr, d)
			}
		}
	}
}

// distVarOf returns the outermost loop variable of a single-nest program
// body, the natural distribution variable for range-kernel tests.
func distVarOf(t *testing.T, prog *Program) (string, *Loop) {
	t.Helper()
	outer, ok := prog.Body[0].(*Loop)
	if !ok {
		t.Fatalf("%s: body does not start with a loop", prog.Name)
	}
	return outer.Var, outer
}

// TestRangeKernelLibraryEquivalence drives every library program's
// outermost loop through a RangeKernel, as two adjacent sub-ranges the way
// a slave runs contiguous owned runs, and requires bit-identical results
// to the interpreter.
func TestRangeKernelLibraryEquivalence(t *testing.T) {
	params := kernelTestParams()
	for name, prog := range Library() {
		prm := params[name]
		ref, err := NewInstance(prog, prm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v, outer := distVarOf(t, ref.Prog)
		if err := ref.Interpret(); err != nil {
			t.Fatalf("%s: interpret: %v", name, err)
		}
		env := map[string]int{}
		for k, val := range prm {
			env[k] = val
		}
		lo, err1 := EvalIndex(outer.Lo, env)
		hi, err2 := EvalIndex(outer.Hi, env)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: outer bounds not parameter-only", name)
		}
		if outer.BreakIf != nil {
			// A range kernel models a fixed [lo,hi) slice; data-dependent
			// outer breaks (jacobi-converge, threshold-relax) are driven by
			// the runtime loop, not the kernel. Skip those outers here.
			continue
		}
		fast, err := NewInstance(prog, prm)
		if err != nil {
			t.Fatal(err)
		}
		rk, err := fast.CompileRangeKernel(v, outer.Body)
		if err != nil {
			t.Fatalf("%s: compile range kernel: %v", name, err)
		}
		mid := lo + (hi-lo)/2
		rk.Run(lo, mid, nil)
		rk.Run(mid, hi, nil)
		for arr := range ref.Arrays {
			if d := ref.Arrays[arr].MaxAbsDiff(fast.Arrays[arr]); d != 0 {
				t.Errorf("%s: array %q differs by %g", name, arr, d)
			}
		}
	}
}

// BenchmarkKernel compares the in-process executors — interpreter and
// compiled kernel — on the stencil (jacobi) and pipelined (sor) programs
// plus mm and lu, the service's other two, and pbin, whose reduction has
// power-law trips and so runs many short strips. jacobi and lu run their
// innermost loops a strip at a time; sor's recurrence and the mm and pbin
// reductions run as carried strips, the chain alone serial. The
// kernel/interp ratio here is the ≥5x acceptance bar the kernel tier was
// admitted on; the benchmark module's loopir.kernel_mflops /
// loopir.interp_mflops record it per workload.
func BenchmarkKernel(b *testing.B) {
	progs := []struct {
		name   string
		params map[string]int
	}{
		{"jacobi", map[string]int{"n": 64, "maxiter": 2}},
		{"sor", map[string]int{"n": 64, "maxiter": 2}},
		{"mm", map[string]int{"n": 48}},
		{"lu", map[string]int{"n": 64}},
		{"pbin", map[string]int{"n": 256, "maxiter": 4}},
	}
	for _, p := range progs {
		prog := Library()[p.name]
		flops := func() int64 {
			in, err := NewInstance(prog, p.params)
			if err != nil {
				b.Fatal(err)
			}
			return ExactFlops(in.Prog.Body, p.params)
		}()
		b.Run(p.name+"/interp", func(b *testing.B) {
			in, err := NewInstance(prog, p.params)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(flops)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := in.Interpret(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(p.name+"/kernel", func(b *testing.B) {
			in, err := NewInstance(prog, p.params)
			if err != nil {
				b.Fatal(err)
			}
			k, err := in.CompileKernel(in.Prog.Body)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(flops)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Run(nil)
			}
		})
	}
}

// TestKexecStateIsolated pins the layout that keeps the per-iteration state
// of two concurrently running kernels off a shared cache line: a line of
// padding around the slice headers, and slices exactly as long as asked.
func TestKexecStateIsolated(t *testing.T) {
	var x kexec
	lo := unsafe.Offsetof(x.regs)
	hi := unsafe.Offsetof(x.strip) + unsafe.Sizeof(x.strip)
	if lo < cacheLine || unsafe.Sizeof(x)-hi < cacheLine {
		t.Errorf("kexec state at [%d,%d) of %d bytes: want %d bytes of padding on both sides", lo, hi, unsafe.Sizeof(x), cacheLine)
	}
	for _, n := range []int{0, 1, 5} {
		if s := isolated[int](n); len(s) != n || cap(s) != n {
			t.Errorf("isolated(%d): len %d cap %d", n, len(s), cap(s))
		}
		if s := isolated[float64](n * stripW); len(s) != n*stripW || cap(s) != n*stripW {
			t.Errorf("isolated(%d): len %d cap %d", n*stripW, len(s), cap(s))
		}
	}
	// The strip buffer is depth slots of stripW words, exactly.
	in, err := NewInstance(Library()["mm"], kernelTestParams()["mm"])
	if err != nil {
		t.Fatal(err)
	}
	k, err := in.CompileKernel(in.Prog.Body)
	if err != nil {
		t.Fatal(err)
	}
	if x, n := k.getExec(), k.depth*stripW; len(x.strip) != n || cap(x.strip) != n {
		t.Errorf("strip buffer len %d cap %d, want %d", len(x.strip), cap(x.strip), n)
	}
}

// BenchmarkKernelPair runs two mm kernels at once the way two slaves of one
// process do, with their execution states allocated back to back by one
// goroutine. One iteration should cost what BenchmarkKernel/mm/kernel's
// does: before kexec was padded that placement could put both states on
// one cache line, and the pair then ran anywhere from 1x to 6x slower.
func BenchmarkKernelPair(b *testing.B) {
	type half struct {
		k *Kernel
		x *kexec
	}
	var pair [2]half
	for i := range pair {
		in, err := NewInstance(Library()["mm"], map[string]int{"n": 48})
		if err != nil {
			b.Fatal(err)
		}
		k, err := in.CompileKernel(in.Prog.Body)
		if err != nil {
			b.Fatal(err)
		}
		pair[i] = half{k, k.getExec()}
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, h := range pair {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				h.k.exec(h.x)
			}
		}()
	}
	wg.Wait()
}
