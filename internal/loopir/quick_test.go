package loopir

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randProgram builds a random but always-valid loop-nest program: a nest of
// 1–3 loops over [1, n-1) with affine subscripts offset by -1/0/+1 (safe
// within the loop bounds) and random arithmetic right-hand sides. It is
// used to cross-check the compiled kernel against the interpreter on inputs
// no human wrote. With unsafe set, each loop runs over one of [0, n),
// [0, n-1), [1, n) and [1, n-1), so a ±1 subscript may leave its
// dimension, and each assignment may sit under an If on a read of a, so
// an out-of-range access may run only for some data.
func randProgram(r *rand.Rand, unsafe bool) *Program {
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
		var s Stmt = Set(ref(), dataExpr(2))
		if unsafe && r.Intn(2) == 0 {
			s = &If{Cond: Cond{Op: ">", L: ref(), R: Fc(0.7)}, Then: []Stmt{s}}
		}
		body = append(body, s)
	}
	var stmt Stmt
	for d := depth - 1; d >= 0; d-- {
		if stmt != nil {
			body = []Stmt{stmt}
		}
		lo, hi := Ic(1), Isub(n, Ic(1))
		if unsafe {
			lo, hi = Ic(r.Intn(2)), Isub(n, Ic(r.Intn(2)))
		}
		stmt = For(vars[d], lo, hi, body...)
	}
	return &Program{
		Name:   "rand",
		Params: []string{"n"},
		Arrays: []*ArrayDecl{initArray("a", "hash", 99, n, n)},
		Body:   []Stmt{stmt},
	}
}

// quickVsInterpreter is the random-program differential, over safe and
// unsafe programs (randProgram): exec runs a random program on a clone of
// an instance the interpreter has run. It must panic exactly when the
// interpreter errors, and leave the interpreter's result bit for bit
// otherwise.
func quickVsInterpreter(t *testing.T, exec func(fast *Instance) error) {
	t.Helper()
	for _, unsafe := range []bool{false, true} {
		check := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			p := randProgram(r, unsafe)
			if err := p.Validate(); err != nil {
				t.Logf("seed %d: generated invalid program: %v", seed, err)
				return false
			}
			ref, err := NewInstance(p, map[string]int{"n": 5 + r.Intn(6)})
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			fast := ref.Clone()
			want := ref.Interpret()
			if want != nil && !unsafe {
				t.Logf("seed %d: interpret: %v", seed, want)
				return false
			}
			got, err := runRecovered(func() error { return exec(fast) })
			if err != nil {
				t.Logf("seed %d: compile: %v", seed, err)
				return false
			}
			switch {
			case (got != "") != (want != nil):
				t.Logf("seed %d: interpreter %v, kernel panic %q", seed, want, got)
				return false
			case want == nil:
				if err := sameBits(ref, fast); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("unsafe=%v: %v", unsafe, err)
		}
	}
}

// runRecovered runs f and returns the message it panicked with, or "".
func runRecovered(f func() error) (msg string, err error) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	return "", f()
}

// outerBounds evaluates a random program's outermost loop bounds.
func outerBounds(in *Instance) (*Loop, int, int) {
	outer := in.Prog.Body[0].(*Loop)
	lo, _ := EvalIndex(outer.Lo, in.Params)
	hi, _ := EvalIndex(outer.Hi, in.Params)
	return outer, lo, hi
}

// TestQuickKernelFragmentEquivalence peels the outermost loop of a random
// program and runs its body as a kernel fragment with the loop variable
// free, bound per call — how the slave runs owner blocks and replicated
// statements. (TestQuickKernelEquivalence covers the fully-bound kernel.)
func TestQuickKernelFragmentEquivalence(t *testing.T) {
	quickVsInterpreter(t, func(fast *Instance) error {
		outer, lo, hi := outerBounds(fast)
		frag, err := fast.CompileKernel(outer.Body)
		if err != nil {
			return err
		}
		for v := lo; v < hi; v++ {
			frag.Run(map[string]int{outer.Var: v})
		}
		return nil
	})
}

// TestQuickRangeKernelEquivalence runs the same peeled loop as a range
// kernel over two adjacent sub-ranges — how the slave runs the contiguous
// runs of a distributed loop it owns.
func TestQuickRangeKernelEquivalence(t *testing.T) {
	quickVsInterpreter(t, func(fast *Instance) error {
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
		p := randProgram(r, false)
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

// RandProgram is randProgram for the native quick test, which lives in
// package loopir_test so that it may import the AOT builder.
var RandProgram = randProgram
