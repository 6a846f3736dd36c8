package loopir

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"math"
	"testing"
)

func TestArrayFlatAndAccess(t *testing.T) {
	a := NewArray("a", []int{3, 4})
	if a.Stride[0] != 4 || a.Stride[1] != 1 {
		t.Fatalf("strides = %v, want [4 1]", a.Stride)
	}
	a.SetAt(7.5, 2, 3)
	if got := a.At(2, 3); got != 7.5 {
		t.Fatalf("At(2,3) = %v, want 7.5", got)
	}
	if got := a.Flat(1, 2); got != 6 {
		t.Fatalf("Flat(1,2) = %d, want 6", got)
	}
}

func TestArrayBoundsPanic(t *testing.T) {
	a := NewArray("a", []int{2, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	a.At(2, 0)
}

func TestArrayFillAndClone(t *testing.T) {
	a := NewArray("a", []int{2, 3})
	a.Fill(func(idx []int) float64 { return float64(10*idx[0] + idx[1]) })
	if a.At(1, 2) != 12 {
		t.Fatalf("At(1,2) = %v, want 12", a.At(1, 2))
	}
	b := a.Clone()
	b.SetAt(99, 0, 0)
	if a.At(0, 0) == 99 {
		t.Fatal("Clone shares storage with original")
	}
	if d := a.MaxAbsDiff(b); d != 99 {
		t.Fatalf("MaxAbsDiff = %v, want 99", d)
	}
	a.Fill(nil)
	if a.At(1, 2) != 0 {
		t.Fatal("Fill(nil) did not zero the array")
	}
}

func TestEvalIndexArithmetic(t *testing.T) {
	env := map[string]int{"i": 5, "n": 10}
	e := Iadd(Imul(Ic(3), Iv("i")), Isub(Iv("n"), Ic(2))) // 3*5 + 10-2 = 23
	got, err := EvalIndex(e, env)
	if err != nil || got != 23 {
		t.Fatalf("EvalIndex = %d, %v; want 23", got, err)
	}
	if _, err := EvalIndex(Iv("missing"), env); err == nil {
		t.Fatal("unbound variable did not error")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	n := Iv("n")
	base := func() *Program {
		return &Program{
			Name:   "t",
			Params: []string{"n"},
			Arrays: []*ArrayDecl{{Name: "a", Dims: []IExpr{n}}},
			Body:   []Stmt{For("i", Ic(0), n, Set(Fref("a", Iv("i")), Fc(1)))},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	p := base()
	p.Params = []string{"n", "n"}
	if err := p.Validate(); err == nil {
		t.Error("duplicate parameter accepted")
	}

	p = base()
	p.Body = []Stmt{Set(Fref("zzz", Ic(0)), Fc(1))}
	if err := p.Validate(); err == nil {
		t.Error("undeclared array accepted")
	}

	p = base()
	p.Body = []Stmt{Set(Fref("a", Ic(0), Ic(0)), Fc(1))}
	if err := p.Validate(); err == nil {
		t.Error("rank mismatch accepted")
	}

	p = base()
	p.Body = []Stmt{Set(Fref("a", Iv("q")), Fc(1))}
	if err := p.Validate(); err == nil {
		t.Error("unbound loop variable accepted")
	}

	p = base()
	p.Body = []Stmt{For("i", Ic(0), n, For("i", Ic(0), n, Set(Fref("a", Iv("i")), Fc(1))))}
	if err := p.Validate(); err == nil {
		t.Error("shadowed loop variable accepted")
	}

	p = base()
	p.Body = []Stmt{For("n", Ic(0), Ic(3), Set(Fref("a", Iv("n")), Fc(1)))}
	if err := p.Validate(); err == nil {
		t.Error("loop variable shadowing a parameter accepted")
	}
}

func TestInterpretTinyMatMul(t *testing.T) {
	in, err := NewInstance(MatMul(), map[string]int{"n": 2})
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the hashed initial values with known ones.
	in.Arrays["a"].Data = []float64{1, 2, 3, 4}
	in.Arrays["b"].Data = []float64{5, 6, 7, 8}
	if err := in.Interpret(); err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if in.Arrays["c"].Data[i] != w {
			t.Fatalf("c = %v, want %v", in.Arrays["c"].Data, want)
		}
	}
}

func TestMissingParameterRejected(t *testing.T) {
	if _, err := NewInstance(MatMul(), map[string]int{}); err == nil {
		t.Fatal("missing parameter accepted")
	}
}

func TestLUValuesAreFinite(t *testing.T) {
	in, err := NewInstance(LU(), map[string]int{"n": 24})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	for _, v := range in.Arrays["a"].Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("LU produced non-finite value %v (matrix not diagonally dominant?)", v)
		}
	}
}

func TestFragmentFreeVariables(t *testing.T) {
	// Compile only the inner j loop of a 2-D sweep; i is a free variable
	// bound per call — exactly how generated slave code runs chunks.
	p := &Program{
		Name:   "frag",
		Params: []string{"n"},
		Arrays: []*ArrayDecl{{Name: "a", Dims: []IExpr{Iv("n"), Iv("n")}}},
		Body: []Stmt{For("i", Ic(0), Iv("n"),
			For("j", Ic(0), Iv("n"),
				Set(Fref("a", Iv("i"), Iv("j")), Fc(1)))),
		},
	}
	in, err := NewInstance(p, map[string]int{"n": 4})
	if err != nil {
		t.Fatal(err)
	}
	inner := p.Body[0].(*Loop).Body // the j loop, with i free
	frag, err := in.CompileKernel(inner)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]int, len(in.Frame))
	frame[in.Frame["i"]] = 2
	frag.Run(frame)
	for j := 0; j < 4; j++ {
		if in.Arrays["a"].At(2, j) != 1 {
			t.Fatalf("row 2 not written: %v", in.Arrays["a"].Data)
		}
	}
	for j := 0; j < 4; j++ {
		if in.Arrays["a"].At(0, j) != 0 {
			t.Fatalf("row 0 unexpectedly written")
		}
	}
}

// TestKernelLowersProducts: a subscript multiplying two loop variables,
// which AffineOf refuses and compile.Compile accepts, lowers to a derived
// register on the VM and in the emitted Go, and matches the interpreter.
// So does a zero times such a product, which must still be derived (and
// its register used) rather than folded away.
func TestKernelLowersProducts(t *testing.T) {
	i, j := Iv("i"), Iv("j")
	p := &Program{
		Name:   "nonaffine",
		Params: []string{"n"},
		Arrays: []*ArrayDecl{
			{Name: "a", Dims: []IExpr{Imul(Iv("n"), Iv("n"))}},
			{Name: "b", Dims: []IExpr{Iv("n")}},
		},
		Body: []Stmt{For("i", Ic(0), Iv("n"),
			For("j", Ic(0), Iv("n"),
				Set(Fref("a", Imul(i, j)), Fadd(Fref("a", Imul(i, j)), Fc(1))),
				Set(Fref("b", j), Fadd(Fref("b", j), Fref("a", Imul(Ic(0), Imul(i, j))))))),
		},
	}
	ref, err := NewInstance(p, map[string]int{"n": 3})
	if err != nil {
		t.Fatal(err)
	}
	fast := ref.Clone()
	if err := ref.Interpret(); err != nil {
		t.Fatal(err)
	}
	if err := fast.Run(); err != nil {
		t.Fatalf("non-affine subscript: %v", err)
	}
	if err := sameBits(ref, fast); err != nil {
		t.Error(err)
	}
	if got := fast.Arrays["a"].At(2 * 2); got != 1 {
		t.Errorf("a[4] = %v, want 1 (written once, by i=j=2)", got)
	}
	ek, err := fast.EmitKernelGo(p.Body, "Kernel0")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "kernels.go", "package p\n\n"+ek.Src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, nil); err != nil {
		t.Errorf("emitted kernel does not type-check: %v\n%s", err, ek.Src)
	}
}

func TestExactAndEstFlops(t *testing.T) {
	mm := MatMul()
	// c[i][j] = c[i][j] + a*b : one add, one mul, one store = 3 ops. The
	// walks bind loop variables in env and must hand it back unchanged,
	// a prior binding of a loop's own variable included.
	env := map[string]int{"n": 6, "i": 99}
	exact := ExactFlops(mm.Body, env)
	if exact != 3*6*6*6 {
		t.Fatalf("ExactFlops = %d, want %d", exact, 3*6*6*6)
	}
	est := EstFlops(mm.Body, env)
	if est != float64(exact) {
		t.Fatalf("EstFlops = %v, want %d (rectangular nest should be exact)", est, exact)
	}
	if want := map[string]int{"n": 6, "i": 99}; !maps.Equal(env, want) {
		t.Fatalf("env after the walks = %v, want %v", env, want)
	}
}

func TestEstFlopsTriangular(t *testing.T) {
	lu := LU()
	env := map[string]int{"n": 16}
	exact := float64(ExactFlops(lu.Body, env))
	est := EstFlops(lu.Body, env)
	if est <= 0 {
		t.Fatal("EstFlops returned non-positive for LU")
	}
	ratio := est / exact
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("EstFlops/%v = %v, too far from exact %v", est, ratio, exact)
	}
}

func TestLibraryProgramsValidate(t *testing.T) {
	for name, p := range Library() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCloneResetsState(t *testing.T) {
	in, err := NewInstance(Axpy(), map[string]int{"n": 8, "maxiter": 2})
	if err != nil {
		t.Fatal(err)
	}
	before := in.Arrays["y"].Clone()
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if before.MaxAbsDiff(in.Arrays["y"]) == 0 {
		t.Fatal("run did not change y")
	}
	fresh := in.Clone()
	if before.MaxAbsDiff(fresh.Arrays["y"]) != 0 {
		t.Fatal("Clone did not reset to initial values")
	}
}

func TestSnapshot(t *testing.T) {
	in, err := NewInstance(Axpy(), map[string]int{"n": 4, "maxiter": 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := in.Snapshot()
	in.Arrays["y"].SetAt(123, 0)
	if snap["y"].At(0) == 123 {
		t.Fatal("Snapshot shares storage")
	}
}

func TestBreakIfTerminatesEarly(t *testing.T) {
	run := func(maxiter int) *Instance {
		in, err := NewInstance(JacobiConverge(), map[string]int{"n": 12, "maxiter": maxiter})
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Run(); err != nil {
			t.Fatal(err)
		}
		return in
	}
	long := run(60)
	longer := run(1000)
	short := run(5)
	if long.Arrays["a"].MaxAbsDiff(longer.Arrays["a"]) != 0 {
		t.Error("maxiter 60 and 1000 differ: the loop did not break before 60 iterations")
	}
	if long.Arrays["a"].MaxAbsDiff(short.Arrays["a"]) == 0 {
		t.Error("maxiter 5 matches converged run: the loop broke unrealistically early")
	}
	if r := long.Arrays["r"].At(0); r >= 1e-2 {
		t.Errorf("residual %g did not reach the threshold", r)
	}
}

func TestBreakIfInterpreterMatchesKernel(t *testing.T) {
	params := map[string]int{"n": 10, "maxiter": 200}
	ref, err := NewInstance(JacobiConverge(), params)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Interpret(); err != nil {
		t.Fatal(err)
	}
	fast := ref.Clone()
	if err := fast.Run(); err != nil {
		t.Fatal(err)
	}
	for name := range ref.Arrays {
		if d := ref.Arrays[name].MaxAbsDiff(fast.Arrays[name]); d != 0 {
			t.Errorf("array %q differs by %g", name, d)
		}
	}
}

func TestBreakIfValidated(t *testing.T) {
	p := JacobiConverge()
	p.Body[0].(*Loop).BreakIf.Op = "~"
	if err := p.Validate(); err == nil {
		t.Fatal("bad breakif operator accepted")
	}
	p = JacobiConverge()
	p.Body[0].(*Loop).BreakIf.L = Fref("nosuch", Ic(0))
	if err := p.Validate(); err == nil {
		t.Fatal("breakif referencing undeclared array accepted")
	}
}

func TestAllComparisonOperators(t *testing.T) {
	// One program per operator, run through both engines, so every
	// comparison arm (interpreter, kernel, break) is exercised.
	ops := []struct {
		op   string
		want float64 // value of a[1] after: if a[1] OP 0.5 { a[1] = 9 }
		init float64
	}{
		{"<", 9, 0.25},
		{"<=", 9, 0.5},
		{">", 9, 0.75},
		{">=", 9, 0.5},
		{"==", 9, 0.5},
		{"!=", 9, 0.25},
	}
	for _, tc := range ops {
		p := &Program{
			Name:   "cmp",
			Params: []string{"n"},
			Arrays: []*ArrayDecl{{Name: "a", Dims: []IExpr{Iv("n")}, Init: func(idx []int) float64 {
				return tc.init
			}}},
			Body: []Stmt{
				For("i", Ic(1), Ic(2),
					&If{
						Cond: Cond{Op: tc.op, L: Fref("a", Iv("i")), R: Fc(0.5)},
						Then: []Stmt{Set(Fref("a", Iv("i")), Fc(9))},
						Else: []Stmt{Set(Fref("a", Iv("i")), Fc(-1))},
					}),
			},
		}
		for _, engine := range []string{"interpret", "kernel"} {
			in, err := NewInstance(p, map[string]int{"n": 3})
			if err != nil {
				t.Fatal(err)
			}
			if engine == "interpret" {
				err = in.Interpret()
			} else {
				err = in.Run()
			}
			if err != nil {
				t.Fatalf("%s %s: %v", tc.op, engine, err)
			}
			if got := in.Arrays["a"].At(1); got != tc.want {
				t.Errorf("%s %s: a[1] = %v, want %v", tc.op, engine, got, tc.want)
			}
		}
		// BreakIf with each operator: loop 0..10 breaking when i-th value
		// set; just ensure both engines agree.
		bp := &Program{
			Name:   "brk",
			Params: []string{"n"},
			Arrays: []*ArrayDecl{{Name: "a", Dims: []IExpr{Iv("n")}}},
			Body: []Stmt{
				&Loop{Var: "i", Lo: Ic(0), Hi: Iv("n"),
					BreakIf: &Cond{Op: tc.op, L: Fref("a", Ic(0)), R: Fc(0.5)},
					Body:    []Stmt{Set(Fref("a", Ic(0)), Fadd(Fref("a", Ic(0)), Fc(0.2)))},
				},
			},
		}
		ref, _ := NewInstance(bp, map[string]int{"n": 10})
		if err := ref.Interpret(); err != nil {
			t.Fatal(err)
		}
		fast := ref.Clone()
		if err := fast.Run(); err != nil {
			t.Fatal(err)
		}
		if d := ref.Arrays["a"].MaxAbsDiff(fast.Arrays["a"]); d != 0 {
			t.Errorf("break op %s: engines disagree by %g", tc.op, d)
		}
	}
}
