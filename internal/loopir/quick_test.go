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
// an out-of-range access may run only for some data. With recur set, an
// operand may also be the stored element itself or the element one step
// behind it in the innermost loop (a reduction or a recurrence when it is
// loaded once), and an operator may be / by 0.5, 2 or 4; in a safe program
// a step behind that would leave the array reads the stored element.
// Without recur the draws are those of the generator before it had the
// option, so a seed gives the program it always gave.
func randProgram(r *rand.Rand, unsafe, recur bool) *Program {
	n := Iv("n")
	depth := 1 + r.Intn(3)
	vars := []string{"i", "j", "k"}[:depth]

	// sub is one subscript: variable v offset by c.
	type sub struct {
		v string
		c int
	}
	idx := func() sub {
		v := vars[r.Intn(len(vars))]
		switch r.Intn(3) {
		case 0:
			return sub{v, -1}
		case 1:
			return sub{v, 1}
		}
		return sub{v, 0}
	}
	at := func(s sub) IExpr {
		switch {
		case s.c < 0:
			return Isub(Iv(s.v), Ic(-s.c))
		case s.c > 0:
			return Iadd(Iv(s.v), Ic(s.c))
		}
		return Iv(s.v)
	}
	refAt := func(s0, s1 sub) Ref { return Fref("a", at(s0), at(s1)) }
	ref := func() Ref { return refAt(idx(), idx()) }

	// stored and behind are the current assignment's stored element and
	// the element one step behind it in the innermost loop.
	var stored, behind Ref
	setStored := func() Ref {
		s := [2]sub{idx(), idx()}
		b, ok := s, true
		for i := range b {
			if b[i].v == vars[depth-1] {
				b[i].c--
				ok = ok && (unsafe || b[i].c >= -1)
			}
		}
		if !ok {
			b = s
		}
		stored, behind = refAt(s[0], s[1]), refAt(b[0], b[1])
		return stored
	}

	var dataExpr func(depth int) Expr
	dataExpr = func(d int) Expr {
		if d <= 0 || r.Intn(3) == 0 {
			if recur {
				switch r.Intn(4) {
				case 0:
					return Fc(float64(r.Intn(7)) * 0.25)
				case 1:
					return ref()
				case 2:
					return stored
				}
				return behind
			}
			if r.Intn(2) == 0 {
				return Fc(float64(r.Intn(7)) * 0.25)
			}
			return ref()
		}
		ops := []byte{'+', '-', '*'}
		if recur {
			ops = append(ops, '/')
		}
		op := ops[r.Intn(len(ops))]
		if op == '/' {
			return Bin{Op: op, L: dataExpr(d - 1), R: Fc([]float64{0.5, 2, 4}[r.Intn(3)])}
		}
		return Bin{Op: op, L: dataExpr(d - 1), R: dataExpr(d - 1)}
	}

	nAssigns := 1 + r.Intn(3)
	var body []Stmt
	for a := 0; a < nAssigns; a++ {
		var s Stmt = Set(setStored(), dataExpr(2))
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
// unsafe programs (randProgram with recur): see randVsInterpreter.
func quickVsInterpreter(t *testing.T, exec func(fast *Instance) error) {
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

// randVsInterpreter runs seed's random program (randProgram with recur)
// through againstInterpret. A safe program must not fail Interpret.
func randVsInterpreter(seed int64, unsafe bool, exec func(fast *Instance) error) error {
	r := rand.New(rand.NewSource(seed))
	p := randProgram(r, unsafe, true)
	if err := p.Validate(); err != nil {
		return fmt.Errorf("generated invalid program: %v", err)
	}
	in, err := NewInstance(p, map[string]int{"n": 5 + r.Intn(6)})
	if err != nil {
		return err
	}
	if !unsafe {
		if err := in.Clone().Interpret(); err != nil {
			return fmt.Errorf("interpret: %v", err)
		}
	}
	return againstInterpret(in, exec)
}

// againstInterpret runs one clone of in through Interpret and another
// through exec. exec must panic exactly when the interpreter errors, and
// leave the interpreter's result bit for bit otherwise.
func againstInterpret(in *Instance, exec func(fast *Instance) error) error {
	ref, fast := in.Clone(), in.Clone()
	want := ref.Interpret()
	got, err := runRecovered(func() error { return exec(fast) })
	switch {
	case err != nil:
		return fmt.Errorf("compile: %v", err)
	case (got != "") != (want != nil):
		return fmt.Errorf("interpreter %v, kernel panic %q", want, got)
	case want == nil:
		return sameBits(ref, fast)
	}
	return nil
}

// FuzzKernel is the random-program differential driven by the fuzzer: its
// input seeds randProgram (with recur), and the whole-program kernel runs
// at its planned widths and with every strip capped at 2.
func FuzzKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, unsafe bool) {
		for _, w := range []int{stripW, 2} {
			if err := randVsInterpreter(seed, unsafe, capped(w)); err != nil {
				t.Fatalf("cap %d: %v", w, err)
			}
		}
	})
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
		p := randProgram(r, false, false)
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
