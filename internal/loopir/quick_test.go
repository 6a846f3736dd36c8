package loopir_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/loopir"
	"repro/internal/loopir/looptest"
)

// quickVsInterpreter is the random-program differential, over safe and
// unsafe programs (looptest.Program with recur): see randVsInterpreter.
func quickVsInterpreter(t *testing.T, exec func(fast *loopir.Instance) error) {
	t.Helper()
	for _, unsafe := range []bool{false, true} {
		check := func(seed int64) bool {
			if err := randVsInterpreter(seed, unsafe, exec); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("unsafe=%v: %v", unsafe, err)
		}
	}
}

// randVsInterpreter runs seed's random program (looptest.Program with
// recur) through AgainstInterpret. A safe program must not fail Interpret.
func randVsInterpreter(seed int64, unsafe bool, exec func(fast *loopir.Instance) error) error {
	r := rand.New(rand.NewSource(seed))
	p := looptest.Program(r, unsafe, true)
	if err := p.Validate(); err != nil {
		return fmt.Errorf("generated invalid program: %v", err)
	}
	in, err := loopir.NewInstance(p, map[string]int{"n": 5 + r.Intn(6)})
	if err != nil {
		return err
	}
	if !unsafe {
		if err := in.Clone().Interpret(); err != nil {
			return fmt.Errorf("interpret: %v", err)
		}
	}
	return loopir.AgainstInterpret(in, exec)
}

// FuzzKernel is the random-program differential driven by the fuzzer: its
// input seeds looptest.Program (with recur), and the whole-program kernel runs
// at its planned widths and with every strip capped at 2.
func FuzzKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, unsafe bool) {
		for _, w := range []int{loopir.StripW, 2} {
			if err := randVsInterpreter(seed, unsafe, loopir.Capped(w)); err != nil {
				t.Fatalf("cap %d: %v", w, err)
			}
		}
	})
}

// outerBounds evaluates a random program's outermost loop bounds.
func outerBounds(in *loopir.Instance) (*loopir.Loop, int, int) {
	outer := in.Prog.Body[0].(*loopir.Loop)
	lo, _ := loopir.EvalIndex(outer.Lo, in.Params)
	hi, _ := loopir.EvalIndex(outer.Hi, in.Params)
	return outer, lo, hi
}

// TestQuickKernelFragmentEquivalence peels the outermost loop of a random
// program and runs its body as a kernel fragment with the loop variable
// free, bound per call — how the slave runs owner blocks and replicated
// statements. (TestQuickKernelEquivalence covers the fully-bound kernel.)
func TestQuickKernelFragmentEquivalence(t *testing.T) {
	quickVsInterpreter(t, func(fast *loopir.Instance) error {
		outer, lo, hi := outerBounds(fast)
		frag, err := fast.CompileKernel(outer.Body)
		if err != nil {
			return err
		}
		slot := fast.Frame.Slot(outer.Var)
		frame := make([]int, len(fast.Frame))
		for v := lo; v < hi; v++ {
			frame[slot] = v
			frag.Run(frame)
		}
		return nil
	})
}

// TestQuickRangeKernelEquivalence runs the same peeled loop as a range
// kernel over two adjacent sub-ranges — how the slave runs the contiguous
// runs of a distributed loop it owns.
func TestQuickRangeKernelEquivalence(t *testing.T) {
	quickVsInterpreter(t, func(fast *loopir.Instance) error {
		outer, lo, hi := outerBounds(fast)
		rk, err := fast.CompileRangeKernel(outer.Var, outer.Body)
		if err != nil {
			return err
		}
		mid := (lo + hi) / 2
		rk.Run(lo, mid, nil)
		rk.Run(mid, hi, nil)
		return nil
	})
}

func TestQuickEstFlopsRectangularExact(t *testing.T) {
	// For rectangular nests (constant bounds), the midpoint estimate must
	// equal the exact count.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := looptest.Program(r, false, false)
		env := map[string]int{"n": 4 + r.Intn(8)}
		return loopir.EstFlops(p.Body, env) == float64(loopir.ExactFlops(p.Body, env))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickArrayFlatRoundTrip(t *testing.T) {
	check := func(d0, d1, d2 uint8) bool {
		dims := []int{int(d0%5) + 1, int(d1%5) + 1, int(d2%5) + 1}
		a := loopir.NewArray("a", dims)
		flat := 0
		for i0 := 0; i0 < dims[0]; i0++ {
			for i1 := 0; i1 < dims[1]; i1++ {
				for i2 := 0; i2 < dims[2]; i2++ {
					if a.Flat(i0, i1, i2) != flat {
						return false
					}
					flat++
				}
			}
		}
		return flat == len(a.Data)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickKernelEquivalence cross-checks the whole-program kernel against
// the interpreter on random programs (looptest.Program).
func TestQuickKernelEquivalence(t *testing.T) {
	quickVsInterpreter(t, func(fast *loopir.Instance) error { return fast.Run() })
}

// TestAffineOfMatchesEvalIndex: on every library program and on random
// affine programs, the affine form of every subscript and loop bound
// evaluates to what the interpreter's EvalIndex computes.
func TestAffineOfMatchesEvalIndex(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	params := loopir.KernelTestParams()
	for name, p := range loopir.Library() {
		loopir.CheckAffineAgainstEval(t, p, params[name], r)
	}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := looptest.Program(r, false, false)
		loopir.CheckAffineAgainstEval(t, p, map[string]int{"n": 5 + r.Intn(6)}, r)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
