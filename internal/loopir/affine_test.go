package loopir

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// indexExprs lists every index expression of p: array extents, loop
// bounds, and the subscripts of every reference — reads, writes, break
// conditions and the index reads nested in IArr subscripts.
func indexExprs(p *Program) []IExpr {
	var out []IExpr
	var add func(e IExpr)
	add = func(e IExpr) {
		out = append(out, e)
		switch e := e.(type) {
		case IBin:
			add(e.L)
			add(e.R)
		case IArr:
			for _, ix := range e.Idx {
				add(ix)
			}
		}
	}
	subscripts := func(r Ref) error {
		for _, ix := range r.Idx {
			add(ix)
		}
		return nil
	}
	for _, a := range p.Arrays {
		for _, d := range a.Dims {
			add(d)
		}
	}
	Walk(p.Body, func(s Stmt, _ []*Loop) error {
		switch s := s.(type) {
		case *Loop:
			add(s.Lo)
			add(s.Hi)
			if s.BreakIf != nil {
				condReads(*s.BreakIf, subscripts)
			}
		case *Assign:
			subscripts(s.LHS)
		}
		return Reads(s, subscripts)
	})
	return out
}

// evalAffine evaluates a form under env.
func evalAffine(a Affine, env map[string]int) int {
	v := a.Const
	for _, t := range a.Terms {
		v += t.Coef * env[t.Var]
	}
	return v
}

// checkAffineAgainstEval decomposes every index expression of p, with
// every variable symbolic and with params known, and checks both forms
// against EvalIndex at a few sampled environments. An expression is refused
// exactly when it reads an index array.
func checkAffineAgainstEval(t *testing.T, p *Program, params map[string]int, r *rand.Rand) {
	t.Helper()
	vars := map[string]bool{}
	Walk(p.Body, func(s Stmt, _ []*Loop) error {
		if l, ok := s.(*Loop); ok {
			vars[l.Var] = true
		}
		return nil
	})
	for _, e := range indexExprs(p) {
		iarr := map[string]bool{}
		collectIArrIdx(e, iarr)
		for _, known := range []map[string]int{nil, params} {
			a, err := AffineOf(e, known)
			if (err != nil) != (len(iarr) > 0) {
				t.Fatalf("%s: AffineOf(%s, %v) error %v; reads index arrays %v", p.Name, e, known, err, iarr)
			}
			if err != nil {
				continue
			}
			for k := 0; k < 4; k++ {
				env := map[string]int{}
				for v := range vars {
					env[v] = r.Intn(41) - 20
				}
				for prm, v := range params {
					env[prm] = v
				}
				want, err := EvalIndex(e, env)
				if err != nil {
					t.Fatal(err)
				}
				if got := evalAffine(a, env); got != want {
					t.Fatalf("%s: %s = %d at %v, AffineOf(known %v) = %+v gives %d", p.Name, e, want, env, known, a, got)
				}
			}
		}
	}
}

// TestAffineOfParamsStaySymbolic: with known nil a parameter is a term like
// any variable, so n*i is refused; with n known it folds, and n*i is 3*i.
func TestAffineOfParamsStaySymbolic(t *testing.T) {
	// 2*i + (n - 3)
	e := Iadd(Imul(Ic(2), Iv("i")), Isub(Iv("n"), Ic(3)))
	a, err := AffineOf(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Affine{Const: -3, Terms: []Term{{"i", 2}, {"n", 1}}}); !reflect.DeepEqual(a, want) {
		t.Fatalf("AffineOf(%s, nil) = %+v, want %+v", e, a, want)
	}
	ni := Imul(Iv("n"), Iv("i"))
	if _, err := AffineOf(ni, nil); err == nil {
		t.Fatalf("AffineOf(%s, nil) accepted", ni)
	}
	a, err = AffineOf(ni, map[string]int{"n": 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := (Affine{Terms: []Term{{"i", 3}}}); !reflect.DeepEqual(a, want) {
		t.Fatalf("AffineOf(%s, n=3) = %+v, want %+v", ni, a, want)
	}
}

// TestAffineOfRefusals: a product of two variables and an index-array read
// are not affine, wherever they sit in the expression.
func TestAffineOfRefusals(t *testing.T) {
	for _, e := range []IExpr{
		Imul(Iv("i"), Iv("j")),
		Iadd(Ic(1), Imul(Iv("i"), Iv("i"))),
		Ia("idx", Iv("i")),
		Iadd(Iv("i"), Ia("idx", Ic(0))),
	} {
		if a, err := AffineOf(e, map[string]int{"n": 4}); err == nil {
			t.Errorf("AffineOf(%s) = %+v, want a non-affine error", e, a)
		}
	}
}

// TestAffineOfTerms pins the form's shape: cancelled variables leave no
// term, and terms keep first-appearance order.
func TestAffineOfTerms(t *testing.T) {
	cases := []struct {
		e    IExpr
		want Affine
	}{
		{Iadd(Isub(Iv("i"), Iv("i")), Ic(3)), Affine{Const: 3}},
		{Imul(Ic(0), Iv("i")), Affine{}},
		{
			Iadd(Isub(Iadd(Iv("j"), Imul(Ic(2), Iv("i"))), Iv("n")), Iv("j")),
			Affine{Terms: []Term{{"j", 2}, {"i", 2}, {"n", -1}}},
		},
		{Isub(Iv("k"), Iadd(Iv("i"), Ic(1))), Affine{Const: -1, Terms: []Term{{"k", 1}, {"i", -1}}}},
	}
	for _, tc := range cases {
		a, err := AffineOf(tc.e, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Const != tc.want.Const || !slices.Equal(a.Terms, tc.want.Terms) {
			t.Errorf("AffineOf(%s) = %+v, want %+v", tc.e, a, tc.want)
		}
	}
}

// TestAffineOffset: Offset holds exactly for v + delta; Coef reads one
// variable's coefficient.
func TestAffineOffset(t *testing.T) {
	cases := []struct {
		e     IExpr
		delta int
		ok    bool
	}{
		{Iadd(Iv("i"), Ic(2)), 2, true},
		{Iv("i"), 0, true},
		{Isub(Iv("i"), Ic(1)), -1, true},
		{Imul(Ic(2), Iv("i")), 0, false},
		{Iadd(Iv("i"), Iv("n")), 0, false},
		{Iadd(Iv("i"), Iv("j")), 0, false},
		{Iv("j"), 0, false},
		{Ic(2), 0, false},
	}
	for _, tc := range cases {
		a, err := AffineOf(tc.e, nil)
		if err != nil {
			t.Fatal(err)
		}
		if delta, ok := a.Offset("i"); delta != tc.delta || ok != tc.ok {
			t.Errorf("AffineOf(%s).Offset(i) = %d, %v; want %d, %v", tc.e, delta, ok, tc.delta, tc.ok)
		}
	}
	a, _ := AffineOf(Isub(Iv("j"), Imul(Ic(3), Iv("i"))), nil)
	if a.Coef("i") != -3 || a.Coef("j") != 1 || a.Coef("k") != 0 {
		t.Errorf("Coef of %+v: i=%d j=%d k=%d, want -3 1 0", a, a.Coef("i"), a.Coef("j"), a.Coef("k"))
	}
}
