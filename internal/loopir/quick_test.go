package loopir

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randProgram builds a random but always-valid loop-nest program: a nest of
// 1–3 loops over [1, n-1) with affine subscripts offset by -1/0/+1 (safe
// within the loop bounds) and random arithmetic right-hand sides. It is
// used to cross-check the compiled kernel against the interpreter on inputs
// no human wrote.
func randProgram(r *rand.Rand) *Program {
	n := Iv("n")
	depth := 1 + r.Intn(3)
	vars := []string{"i", "j", "k"}[:depth]

	idxExpr := func() IExpr {
		v := Iv(vars[r.Intn(len(vars))])
		switch r.Intn(3) {
		case 0:
			return Isub(v, Ic(1))
		case 1:
			return Iadd(v, Ic(1))
		}
		return v
	}
	ref := func() Ref { return Fref("a", idxExpr(), idxExpr()) }

	var dataExpr func(depth int) Expr
	dataExpr = func(d int) Expr {
		if d <= 0 || r.Intn(3) == 0 {
			if r.Intn(2) == 0 {
				return Fc(float64(r.Intn(7)) * 0.25)
			}
			return ref()
		}
		ops := []byte{'+', '-', '*'}
		return Bin{Op: ops[r.Intn(len(ops))], L: dataExpr(d - 1), R: dataExpr(d - 1)}
	}

	nAssigns := 1 + r.Intn(3)
	var body []Stmt
	for a := 0; a < nAssigns; a++ {
		body = append(body, Set(ref(), dataExpr(2)))
	}
	var stmt Stmt
	for d := depth - 1; d >= 0; d-- {
		if stmt != nil {
			body = []Stmt{stmt}
		}
		stmt = For(vars[d], Ic(1), Isub(n, Ic(1)), body...)
	}
	return &Program{
		Name:   "rand",
		Params: []string{"n"},
		Arrays: []*ArrayDecl{initArray("a", "hash", 99, n, n)},
		Body:   []Stmt{stmt},
	}
}

// quickVsInterpreter is the random-program differential: exec runs a random
// program (parameter n) on a clone of an instance the interpreter has run,
// and must leave the interpreter's result bit for bit.
func quickVsInterpreter(t *testing.T, exec func(fast *Instance, n int) error) {
	t.Helper()
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randProgram(r)
		if err := p.Validate(); err != nil {
			t.Logf("seed %d: generated invalid program: %v", seed, err)
			return false
		}
		nVal := 5 + r.Intn(6)
		ref, err := NewInstance(p, map[string]int{"n": nVal})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		fast := ref.Clone()
		if err := ref.Interpret(); err != nil {
			t.Logf("seed %d: interpret: %v", seed, err)
			return false
		}
		if err := exec(fast, nVal); err != nil {
			t.Logf("seed %d: compile: %v", seed, err)
			return false
		}
		d := ref.Arrays["a"].MaxAbsDiff(fast.Arrays["a"])
		if d != 0 && !math.IsNaN(d) {
			t.Logf("seed %d: divergence %g", seed, d)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickKernelFragmentEquivalence peels the outermost loop of a random
// program and runs its body as a kernel fragment with the loop variable
// free, bound per call — how the slave runs owner blocks and replicated
// statements. (TestQuickKernelEquivalence covers the fully-bound kernel.)
func TestQuickKernelFragmentEquivalence(t *testing.T) {
	quickVsInterpreter(t, func(fast *Instance, n int) error {
		outer := fast.Prog.Body[0].(*Loop)
		frag, err := fast.CompileKernel(outer.Body)
		if err != nil {
			return err
		}
		for v := 1; v < n-1; v++ {
			frag.Run(map[string]int{outer.Var: v})
		}
		return nil
	})
}

// TestQuickRangeKernelEquivalence runs the same peeled loop as a range
// kernel over two adjacent sub-ranges — how the slave runs the contiguous
// runs of a distributed loop it owns.
func TestQuickRangeKernelEquivalence(t *testing.T) {
	quickVsInterpreter(t, func(fast *Instance, n int) error {
		outer := fast.Prog.Body[0].(*Loop)
		rk, err := fast.CompileRangeKernel(outer.Var, outer.Body)
		if err != nil {
			return err
		}
		mid := n / 2
		rk.Run(1, mid, nil)
		rk.Run(mid, n-1, nil)
		return nil
	})
}

func TestQuickEstFlopsRectangularExact(t *testing.T) {
	// For rectangular nests (constant bounds), the midpoint estimate must
	// equal the exact count.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randProgram(r)
		env := map[string]int{"n": 4 + r.Intn(8)}
		return EstFlops(p.Body, env) == float64(ExactFlops(p.Body, env))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickArrayFlatRoundTrip(t *testing.T) {
	check := func(d0, d1, d2 uint8) bool {
		dims := []int{int(d0%5) + 1, int(d1%5) + 1, int(d2%5) + 1}
		a := NewArray("a", dims)
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
