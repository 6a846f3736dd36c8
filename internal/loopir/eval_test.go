package loopir

import (
	"strings"
	"testing"
)

// TestInterpretOutOfRangeIsError: an out-of-range subscript is the
// interpreter's error, naming the array and the index, for a data read, a
// write and an index-array read alike.
func TestInterpretOutOfRangeIsError(t *testing.T) {
	i, n := Iv("i"), Iv("n")
	cases := []struct {
		name string
		body Stmt
		want string
	}{
		{"read", Set(Fref("a", i), Fref("a", Iadd(i, Ic(1)))), `array "a" index 4 out of range`},
		{"write", Set(Fref("a", Iadd(i, Ic(1))), Fc(1)), `array "a" index 4 out of range`},
		{"index-array read", Set(Fref("a", i), Fref("a", Ia("ix", Iadd(i, Ic(1))))), `array "ix" index 4 out of range`},
	}
	for _, tc := range cases {
		p := &Program{
			Name:   "oob",
			Params: []string{"n"},
			Arrays: []*ArrayDecl{{Name: "a", Dims: []IExpr{n}}, {Name: "ix", Dims: []IExpr{n}}},
			Body:   []Stmt{For("i", Ic(0), n, tc.body)},
		}
		in, err := NewInstance(p, map[string]int{"n": 4})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := in.Interpret(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Interpret() = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestEvalIndexArrayNeedsInstance(t *testing.T) {
	if _, err := EvalIndex(Ia("ix", Ic(0)), nil); err == nil {
		t.Fatal("an index-array read evaluated without an instance")
	}
}

// TestInterpretAllocsDoNotGrow: the interpreter allocates per run, not per
// access.
func TestInterpretAllocsDoNotGrow(t *testing.T) {
	allocs := func(n int) float64 {
		in, err := NewInstance(Jacobi(), map[string]int{"n": n, "maxiter": 2})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if err := in.Interpret(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(8), allocs(32); large > small {
		t.Errorf("Interpret allocates %v times at n=8 and %v at n=32", small, large)
	}
}

type access struct {
	s     Stmt
	ord   int
	array string
	flat  int
}

func observe(t *testing.T, p *Program, params map[string]int) []access {
	t.Helper()
	in, err := NewInstance(p, params)
	if err != nil {
		t.Fatal(err)
	}
	var log []access
	err = in.InterpretObserved(func(s Stmt, ord int, array string, flat int, _ map[string]int) error {
		log = append(log, access{s, ord, array, flat})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// TestObserverOrder: an Assign's reads in evaluation order, then its write.
func TestObserverOrder(t *testing.T) {
	p := MatMul()
	log := observe(t, p, map[string]int{"n": 2})
	s := p.Body[0].(*Loop).Body[0].(*Loop).Body[0].(*Loop).Body[0]
	want := []access{{s, 0, "c", 0}, {s, 1, "a", 0}, {s, 2, "b", 0}, {s, -1, "c", 0}, {s, 0, "c", 0}, {s, 1, "a", 1}, {s, 2, "b", 2}, {s, -1, "c", 0}}
	if len(log) != 8*4 {
		t.Fatalf("%d accesses observed, want 32", len(log))
	}
	for k, w := range want {
		if log[k] != w {
			t.Errorf("access %d = %+v, want %+v", k, log[k], w)
		}
	}
}

// TestObserverSkipsControlReads: break conditions, loop bounds and
// subscripts read data but are control, not data flow; an If's condition
// is data flow.
func TestObserverSkipsControlReads(t *testing.T) {
	count := func(log []access, keep func(access) bool) int {
		n := 0
		for _, a := range log {
			if keep(a) {
				n++
			}
		}
		return n
	}

	// jacobi-converge reads r[0] in its break condition and once in each
	// residual update; only the update's reads are reported.
	jc := JacobiConverge()
	log := observe(t, jc, map[string]int{"n": 6, "maxiter": 3})
	reset := jc.Body[0].(*Loop).Body[0]
	sweeps := count(log, func(a access) bool { return a.s == reset })
	if sweeps == 0 {
		t.Fatal("jacobi-converge ran no sweep")
	}
	if got, want := count(log, func(a access) bool { return a.array == "r" && a.ord >= 0 }), sweeps*4*4; got != want {
		t.Errorf("jacobi-converge: %d reads of r observed over %d sweeps, want %d", got, sweeps, want)
	}

	// threshold-relax's If reads its condition once per execution, ord 0.
	tr := ThresholdRelax()
	log = observe(t, tr, map[string]int{"n": 6, "maxiter": 2})
	cond := tr.Body[0].(*Loop).Body[0].(*Loop).Body[0].(*Loop).Body[0]
	if got := count(log, func(a access) bool { return a.s == cond }); got != 2*4*4 {
		t.Errorf("threshold-relax: %d condition reads observed, want %d", got, 2*4*4)
	}
	if n := count(log, func(a access) bool { return a.s == cond && (a.ord != 0 || a.array != "v") }); n != 0 {
		t.Errorf("threshold-relax: %d condition accesses other than v at ord 0", n)
	}

	// spmv reads rowlen in a loop bound and ofs in a subscript.
	log = observe(t, SpMV(), map[string]int{"n": 70, "maxiter": 1})
	if n := count(log, func(a access) bool { return a.array == "val" }); n == 0 {
		t.Fatal("spmv: no row entry read")
	}
	if n := count(log, func(a access) bool { return a.array == "rowlen" || a.array == "ofs" }); n != 0 {
		t.Errorf("spmv: %d index-array reads reported as data accesses", n)
	}
}
