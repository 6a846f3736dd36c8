package aot

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/loopir"
)

// boundsCase is one row of TestBoundsRule. body is the program: it fixes
// every loop variable's hull. A row with a region runs the range kernel of
// the loop over region.v with body region.body, over [lo, hi) with env;
// oracle is then the program Interpret runs for that call. A row without
// runs the whole body, and Interpret runs body itself.
type boundsCase struct {
	name   string
	body   []loopir.Stmt
	set    func(in *loopir.Instance) // data edits before either run
	region *boundsRegion
	oracle []loopir.Stmt
	hull   string // the variable whose hull check must fail, if any
}

type boundsRegion struct {
	v      string
	body   []loopir.Stmt
	lo, hi int
	env    map[string]int
}

// TestBoundsRule holds the VM and the native kernel to the interpreter on
// the edges of the one bounds rule: a kernel fails exactly when Interpret
// fails, naming the same array and dimension (or, for a variable bound
// outside its hull, that variable), and is bit-exact otherwise. At n = 8,
// a[i][j+1] and a[i][j-1] are the flat-offset hole: one past a row is the
// next row's first element, still inside the array.
func TestBoundsRule(t *testing.T) {
	const n = 8
	i, j, nv := loopir.Iv("i"), loopir.Iv("j"), loopir.Iv("n")
	add := func(e loopir.IExpr, c int) loopir.IExpr { return loopir.Iadd(e, loopir.Ic(c)) }
	copyRow := func(rhs loopir.Ref) loopir.Stmt { return loopir.Set(loopir.Fref("b", i, j), rhs) }
	nest := func(ilo, ihi loopir.IExpr, inner *loopir.Loop) []loopir.Stmt {
		return []loopir.Stmt{loopir.For("i", ilo, ihi, inner)}
	}
	jloop := func(hi loopir.IExpr, s ...loopir.Stmt) *loopir.Loop { return loopir.For("j", loopir.Ic(0), hi, s...) }
	breakAt := func(c float64, s loopir.Stmt) *loopir.Loop {
		l := jloop(nv, s)
		l.BreakIf = &loopir.Cond{Op: ">", L: loopir.Fref("b", i, j), R: loopir.Fc(c)}
		return l
	}
	guarded := func(s loopir.Stmt) loopir.Stmt {
		return &loopir.If{Cond: loopir.Cond{Op: ">", L: loopir.Fref("g", j), R: loopir.Fc(0.5)}, Then: []loopir.Stmt{s}}
	}
	guardUpTo := func(last int) func(in *loopir.Instance) {
		return func(in *loopir.Instance) {
			for v := 0; v <= last; v++ {
				in.Arrays["g"].SetAt(1, v)
			}
		}
	}
	nextRow := copyRow(loopir.Fref("a", add(i, 1), j))
	cases := []boundsCase{
		{name: "a[i][j+1], i < n-1", body: nest(loopir.Ic(0), add(nv, -1), jloop(nv, copyRow(loopir.Fref("a", i, add(j, 1)))))},
		{name: "a[i][j-1], i >= 1", body: nest(loopir.Ic(1), nv, jloop(nv, copyRow(loopir.Fref("a", i, add(j, -1)))))},
		{name: "a[i+1][j]", body: nest(loopir.Ic(0), nv, jloop(nv, nextRow))},
		{name: "triangular j < i+3", body: nest(loopir.Ic(0), nv, jloop(add(i, 3), copyRow(loopir.Fref("a", i, j))))},
		{name: "triangular j < i+3, i < n-3", body: nest(loopir.Ic(0), add(nv, -3), jloop(add(i, 3), copyRow(loopir.Fref("a", i, j))))},
		{name: "guarded a[i][j+1], guard true at j = n-1", body: nest(loopir.Ic(0), add(nv, -1), jloop(nv, guarded(copyRow(loopir.Fref("a", i, add(j, 1)))))), set: guardUpTo(n - 1)},
		{name: "guarded a[i][j+1], guard false at j = n-1", body: nest(loopir.Ic(0), add(nv, -1), jloop(nv, guarded(copyRow(loopir.Fref("a", i, add(j, 1)))))), set: guardUpTo(n - 2)},
		{name: "breakif exits before a[i][j+1] leaves its row", body: nest(loopir.Ic(0), nv, breakAt(-1, copyRow(loopir.Fref("a", i, add(j, 1)))))},
		{name: "breakif never exits", body: nest(loopir.Ic(0), nv, breakAt(1e9, copyRow(loopir.Fref("a", i, add(j, 1)))))},
	}
	// i's hull is [0, n-2]; a[i+1][j] is proven on it.
	inHull := nest(loopir.Ic(0), add(nv, -1), jloop(nv, nextRow))
	only := func(lo, hi int) []loopir.Stmt { return nest(loopir.Ic(lo), loopir.Ic(hi), jloop(nv, nextRow)) }
	for _, c := range []struct {
		v          string
		body       []loopir.Stmt
		lo, hi, iv int
	}{
		{"j", []loopir.Stmt{nextRow}, 0, n, n - 2},
		{"j", []loopir.Stmt{nextRow}, 0, n, n - 1},
		{"i", []loopir.Stmt{jloop(nv, nextRow)}, 0, n - 1, 0},
		{"i", []loopir.Stmt{jloop(nv, nextRow)}, 0, n, 0},
		{"i", []loopir.Stmt{jloop(nv, nextRow)}, -1, 2, 0},
	} {
		bc := boundsCase{body: inHull, region: &boundsRegion{v: c.v, body: c.body, lo: c.lo, hi: c.hi}}
		bc.oracle = only(bc.oracleRange(c.lo, c.hi, c.iv))
		bc.name = fmt.Sprintf("range kernel over i in [%d,%d)", c.lo, c.hi)
		if c.v == "j" {
			bc.name = fmt.Sprintf("free i = %d", c.iv)
			bc.region.env = map[string]int{"i": c.iv}
		}
		if lo, hi := bc.oracleRange(c.lo, c.hi, c.iv); lo < 0 || hi > n-1 {
			bc.hull = "i"
		}
		cases = append(cases, bc)
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := &loopir.Program{
				Name:   "bounds",
				Params: []string{"n"},
				Arrays: []*loopir.ArrayDecl{
					{Name: "a", Dims: []loopir.IExpr{nv, nv}, Init: func(idx []int) float64 { return float64(1 + idx[0]*n + idx[1]) }},
					{Name: "b", Dims: []loopir.IExpr{nv, add(nv, 2)}},
					{Name: "g", Dims: []loopir.IExpr{nv}},
				},
				Body: c.body,
			}
			params := map[string]int{"n": n}
			fresh := func(body []loopir.Stmt) *loopir.Instance {
				q := *p
				q.Body = body
				in := instance(t, &q, params)
				if c.set != nil {
					c.set(in)
				}
				return in
			}
			oracle := c.body
			if c.region != nil {
				oracle = c.oracle
			}
			ref := fresh(oracle)
			ierr := ref.Interpret()
			// A failure names want and dim.
			want, dim := "", ""
			switch m := interpretRange.FindStringSubmatch(fmt.Sprint(ierr)); {
			case ierr == nil && c.hull != "":
				t.Fatalf("Interpret succeeded; the row expects a hull failure")
			case ierr == nil:
			case m == nil:
				t.Fatalf("Interpret: %v, want an out-of-range error", ierr)
			case c.hull != "":
				want = fmt.Sprintf("variable %q", c.hull)
			default:
				want, dim = fmt.Sprintf("%q", m[1]), " in dim "+m[2]
			}

			spec := Spec{Prog: p, Params: params, WholeBody: c.region == nil}
			if c.region != nil {
				spec.Regions = []Region{{DistVar: c.region.v, Body: c.region.body}}
			}
			prog, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			vm, native := fresh(p.Body), fresh(p.Body)
			bk, err := prog.Kernels[0].Bind(native.Arrays)
			if err != nil {
				t.Fatal(err)
			}
			frameOf := func(f loopir.Frame) []int {
				frame := make([]int, len(f))
				for name, s := range f {
					frame[s] = c.region.env[name]
				}
				return frame
			}
			runs := map[string]func(){
				"native": func() {
					if c.region == nil {
						bk.Run(0, 0, nil)
					} else {
						bk.Frame(native.Frame)
						bk.Run(c.region.lo, c.region.hi, frameOf(native.Frame))
					}
				},
				"vm": func() {
					if c.region == nil {
						vm.Run()
						return
					}
					rk, err := vm.CompileRangeKernel(c.region.v, c.region.body)
					if err != nil {
						t.Fatal(err)
					}
					rk.Run(c.region.lo, c.region.hi, frameOf(vm.Frame))
				},
			}
			for _, tier := range []string{"vm", "native"} {
				msg := recovered(runs[tier])
				switch {
				case want == "" && msg != "":
					t.Errorf("%s panicked with %q; Interpret succeeded", tier, msg)
				case want != "" && msg == "":
					t.Errorf("%s succeeded; Interpret: %v", tier, ierr)
				case !strings.Contains(msg, want) || !strings.Contains(msg, dim):
					t.Errorf("%s panicked with %q, want one naming %s (Interpret: %v)", tier, msg, want, ierr)
				}
			}
			if want == "" {
				sameArrays(t, "vm", ref, vm)
				sameArrays(t, "native", ref, native)
			}
		})
	}
}

var interpretRange = regexp.MustCompile(`array "(\w+)" index -?\d+ out of range \[0,\d+\) in dim (\d+)`)

// oracleRange is the range of i a region row runs: [lo, hi) over i
// itself, or the one value iv of i free.
func (c *boundsCase) oracleRange(lo, hi, iv int) (int, int) {
	if c.region.v == "i" {
		return lo, hi
	}
	return iv, iv + 1
}

// recovered runs f and returns what it panicked with, or "".
func recovered(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
