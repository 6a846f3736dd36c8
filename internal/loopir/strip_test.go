package loopir

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// stripPlans describes, in program order, how each innermost loop of k
// runs: "v scalar", or "v w=W" with " reduce" for a folded reduction and
// " +N at entry" for the load pairs loop entry decides.
func stripPlans(k *Kernel) []string {
	names := map[int]string{}
	for n, r := range k.regIndex {
		names[r] = n
	}
	var out []string
	var walk func(code []kinstr) bool // reports whether code holds a loop
	walk = func(code []kinstr) bool {
		found := false
		for _, ins := range code {
			switch ins := ins.(type) {
			case *kloop:
				found = true
				if walk(ins.body) {
					continue
				}
				s := ins.strip
				if s == nil {
					out = append(out, names[ins.reg]+" scalar")
					continue
				}
				d := fmt.Sprintf("%s w=%d", names[ins.reg], s.width)
				if s.reduce {
					d += " reduce"
				}
				if len(s.pairs) > 0 {
					d += fmt.Sprintf(" +%d at entry", len(s.pairs))
				}
				out = append(out, d)
			case *kif:
				t, e := walk(ins.then), walk(ins.els)
				found = found || t || e
			}
		}
		return found
	}
	walk(k.code)
	return out
}

// sameBits reports the first element where two instances' arrays differ
// in any bit.
func sameBits(a, b *Instance) error {
	for name, x := range a.Arrays {
		y := b.Arrays[name]
		for i := range x.Data {
			if math.Float64bits(x.Data[i]) != math.Float64bits(y.Data[i]) {
				return fmt.Errorf("%s[%d]: interpreter %v, kernel %v", name, i, x.Data[i], y.Data[i])
			}
		}
	}
	return nil
}

// TestStripBatchLegality pins, per row, how the kernel compiler plans each
// innermost loop, and runs the kernel against Interpret bit for bit. The
// rows sit on either side of every edge of the rule: dependence distances
// 1, 2, 127, 128 and 129 in both directions and on negative steps,
// step-0 reductions for + − × ÷ in both operand orders, reductions whose
// other operand reads the stored address, pairs that differ in an outer
// register's coefficient (decided at entry), and trips of 1, 127 and a
// non-multiple of 128.
func TestStripBatchLegality(t *testing.T) {
	m, i, j, k := Iv("m"), Iv("i"), Iv("j"), Iv("k")
	vec := func(name string, salt float64, extra int) *ArrayDecl {
		return initArray(name, "hash", salt, Iadd(m, Ic(extra)))
	}
	mat := func(name string, salt float64) *ArrayDecl { return initArray(name, "hash", salt, m, m) }
	type row struct {
		name   string
		m      int
		arrays []*ArrayDecl
		body   Stmt
		want   []string
	}
	var rows []row

	// x[i] = x[i∓q]·0.75 + y[i]: a load q iterations behind the store is a
	// true dependence of distance q; one ahead of it never is.
	for _, q := range []int{1, 2, 127, 128, 129} {
		w := fmt.Sprintf("i w=%d", min(q, stripW))
		if q == 1 {
			w = "i scalar"
		}
		rows = append(rows,
			row{fmt.Sprintf("distance +%d", q), 300, []*ArrayDecl{vec("x", 1, q), vec("y", 2, q)},
				For("i", Ic(q), Iadd(m, Ic(q)), Set(Fref("x", i), Fadd(Fmul(Fref("x", Isub(i, Ic(q))), Fc(0.75)), Fref("y", i)))),
				[]string{w}},
			row{fmt.Sprintf("distance -%d", q), 300, []*ArrayDecl{vec("x", 1, q), vec("y", 2, q)},
				For("i", Ic(0), m, Set(Fref("x", i), Fadd(Fmul(Fref("x", Iadd(i, Ic(q))), Fc(0.75)), Fref("y", i)))),
				[]string{"i w=128"}})
	}

	// Negative steps: x[m-1-i] stores downwards.
	down := func(ofs int) IExpr { return Iadd(Isub(m, i), Ic(ofs)) } // m - i + ofs
	for _, c := range []struct {
		lo, ofs int
		want    string
	}{
		{1, 0, "i scalar"}, // loads x[m-i], stored one iteration earlier
		{2, 1, "i w=2"},    // loads x[m+1-i], stored two iterations earlier
		{0, -3, "i w=128"}, // loads x[m-3-i], stored two iterations later
		{0, -1, "i w=128"}, // loads the stored element itself
		{3, 2, "i w=3"},    // three iterations earlier
	} {
		rows = append(rows, row{fmt.Sprintf("negative step, load x[m-i%+d]", c.ofs), 300,
			[]*ArrayDecl{vec("x", 3, 0), vec("y", 4, 0)},
			For("i", Ic(c.lo), Isub(m, Ic(3)), Set(Fref("x", down(-1)), Fadd(Fmul(Fref("x", down(c.ofs)), Fc(0.75)), Fref("y", i)))),
			[]string{c.want}})
	}

	// Step-0 reductions over k into c[i], for each operator and order.
	for _, op := range []byte{'+', '-', '*', '/'} {
		e := Expr(Fref("a", i, k))
		if op == '*' || op == '/' {
			e = Fadd(Fmul(Fref("a", i, k), Fc(0.01)), Fc(0.995))
		}
		acc := Fref("c", i)
		for _, accLeft := range []bool{true, false} {
			rhs, side := Bin{Op: op, L: acc, R: e}, "acc left"
			if !accLeft {
				rhs, side = Bin{Op: op, L: e, R: acc}, "acc right"
			}
			rows = append(rows, row{fmt.Sprintf("reduction %c, %s", op, side), 130,
				[]*ArrayDecl{vec("c", 5, 0), mat("a", 6)},
				For("i", Ic(0), m, For("k", Ic(0), m, Set(acc, rhs))),
				[]string{"k w=128 reduce"}})
		}
	}
	rows = append(rows,
		// The other operand reads the stored address through c[k], at k = i.
		row{"reduction, other operand reads c[i] via c[k]", 130, []*ArrayDecl{vec("c", 5, 0), mat("a", 6)},
			For("i", Ic(0), m, For("k", Ic(0), m,
				Set(Fref("c", i), Fadd(Fref("c", i), Fmul(Fref("a", i, k), Fref("c", k)))))),
			[]string{"k w=128 reduce +1 at entry"}},
		// ... and through the stored site itself: loaded twice, no reduction.
		row{"reduction, other operand reads c[i] itself", 130, []*ArrayDecl{vec("c", 5, 0), mat("a", 6)},
			For("i", Ic(0), m, For("k", Ic(0), m,
				Set(Fref("c", i), Fadd(Fref("c", i), Fmul(Fref("a", i, k), Fref("c", i)))))),
			[]string{"k scalar"}},
		// The stored value is not a direct operand of the top operator.
		row{"step-0 store under a product", 130, []*ArrayDecl{vec("c", 5, 0), mat("a", 6)},
			For("i", Ic(0), m, For("k", Ic(0), m,
				Set(Fref("c", i), Fmul(Fadd(Fref("c", i), Fref("a", i, k)), Fc(0.5))))),
			[]string{"k scalar"}},
		// A step-0 store nothing loads: the last iteration's value stays.
		row{"step-0 store, no load", 130, []*ArrayDecl{vec("c", 5, 0), mat("a", 6)},
			For("i", Ic(0), m, For("k", Ic(0), m, Set(Fref("c", i), Fmul(Fref("a", i, k), Fc(2))))),
			[]string{"k w=128"}},
	)

	// Pairs that differ in an outer register's coefficient, decided at
	// loop entry.
	rows = append(rows,
		row{"c[i][j] against c[j][i]", 140, []*ArrayDecl{mat("c", 7), mat("a", 8)},
			For("i", Ic(0), m, For("j", Ic(0), m,
				Set(Fref("c", i, j), Fadd(Fmul(Fref("c", j, i), Fc(0.5)), Fref("a", i, j))))),
			[]string{"j w=128 +1 at entry"}},
		// Distance i between x[j+3i] and x[j+2i]: widths 1, 2, 3 by row.
		row{"x[j+3i] against x[j+2i]", 300, []*ArrayDecl{vec("x", 9, 12), vec("y", 10, 0)},
			For("i", Ic(1), Ic(4), For("j", Ic(0), m,
				Set(Fref("x", Iadd(j, Imul(Ic(3), i))), Fadd(Fmul(Fref("x", Iadd(j, Imul(Ic(2), i))), Fc(0.75)), Fref("y", j))))),
			[]string{"j w=128 +1 at entry"}},
	)

	// Trips of 1, 127 and a non-multiple of 128, plain and reduced.
	for _, trip := range []int{1, 127, 300} {
		rows = append(rows,
			row{fmt.Sprintf("axpy, trip %d", trip), trip, []*ArrayDecl{vec("x", 11, 0), vec("y", 12, 0)},
				For("i", Ic(0), m, Set(Fref("y", i), Fadd(Fmul(Fc(1.0001), Fref("x", i)), Fref("y", i)))),
				[]string{"i w=128"}},
			row{fmt.Sprintf("sum, trip %d", trip), trip, []*ArrayDecl{vec("x", 11, 0), vec("s", 13, 0)},
				For("i", Ic(0), m, Set(Fref("s", Ic(0)), Fadd(Fref("s", Ic(0)), Fref("x", i)))),
				[]string{"i w=128 reduce"}})
	}

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			p := &Program{Name: "strip", Params: []string{"m"}, Arrays: r.arrays, Body: []Stmt{r.body}}
			stripAgainstInterpret(t, p, map[string]int{"m": r.m}, r.want)
		})
	}

	// lu's a[k][j] and a[ii][k] against a[ii][j], with trips crossing 128.
	t.Run("lu n=140", func(t *testing.T) {
		stripAgainstInterpret(t, LU(), map[string]int{"n": 140}, []string{"i w=128 +1 at entry", "ii w=128 +2 at entry"})
	})
}

// stripAgainstInterpret compiles p's body, checks its strip plans against
// want, and requires the kernel to reproduce Interpret bit for bit.
func stripAgainstInterpret(t *testing.T, p *Program, params map[string]int, want []string) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	ref, err := NewInstance(p, params)
	if err != nil {
		t.Fatal(err)
	}
	fast := ref.Clone()
	if err := ref.Interpret(); err != nil {
		t.Fatal(err)
	}
	k, err := fast.CompileKernel(fast.Prog.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := stripPlans(k); !reflect.DeepEqual(got, want) {
		t.Errorf("plans %q, want %q", got, want)
	}
	k.Run(nil)
	if err := sameBits(ref, fast); err != nil {
		t.Error(err)
	}
}

// TestLibraryStripPlans pins which library innermost loops run a strip at
// a time, and at what compile-time width: the ones the VM's speed on the
// service's jobs rests on, and the ones that must stay scalar.
func TestLibraryStripPlans(t *testing.T) {
	want := map[string][]string{
		"mm":              {"k w=128 reduce"},
		"lu":              {"i w=128 +1 at entry", "ii w=128 +2 at entry"},
		"jacobi":          {"j w=128", "j2 w=128"},
		"jacobi3d":        {"k w=128", "k2 w=128"},
		"axpy":            {"i w=128"},
		"periodic-sor":    {"i2 w=128", "i3 w=128", "j scalar"},
		"sor":             {"j scalar"},
		"threshold-relax": {"j scalar"},
		"jacobi-converge": {"j w=128", "j2 scalar"},
		"spmv":            {"k scalar"},
		"pbin":            {"l w=128 reduce"},
	}
	params := kernelTestParams()
	for name, prog := range Library() {
		in, err := NewInstance(prog, params[name])
		if err != nil {
			t.Fatal(err)
		}
		k, err := in.CompileKernel(in.Prog.Body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := stripPlans(k); !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s: plans %q, want %q", name, got, want[name])
		}
	}
}
