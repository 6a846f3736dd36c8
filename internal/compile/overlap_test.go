package compile

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/depend"
	"repro/internal/lang"
	"repro/internal/loopir"
)

// collectExchanges gathers every exchange group in program order.
func collectExchanges(steps []Step) []*Exchange {
	var out []*Exchange
	WalkSteps(steps, func(s Step, _ []Step) error {
		if ex, ok := s.(*Exchange); ok {
			out = append(out, ex)
		}
		return nil
	})
	return out
}

// TestOverlapLibraryEligibility pins down, per library program, which ghost
// exchanges the compiler marks split-loop eligible. Jacobi-family programs
// (exchange directly feeding a pure stencil loop) must be eligible; the
// pipelined programs (sor, threshold-relax) and periodic-sor (exchange
// consumed through owner blocks) must not.
func TestOverlapLibraryEligibility(t *testing.T) {
	specs := map[string]depend.DistSpec{
		"mm":              specMM(),
		"sor":             specSOR(),
		"lu":              specLU(),
		"jacobi":          specJacobi(),
		"axpy":            {Dims: map[string]int{"x": 0, "y": 0}, Loops: []string{"i"}},
		"threshold-relax": {Dims: map[string]int{"v": 1}, Loops: []string{"j"}},
		"periodic-sor":    {Dims: map[string]int{"b": 0}, Loops: []string{"j"}},
		"jacobi-converge": {Dims: map[string]int{"a": 0, "anew": 0}, Loops: []string{"i", "i2"}},
		"jacobi3d":        {Dims: map[string]int{"u": 0, "unew": 0}, Loops: []string{"i", "i2"}},
	}
	// Programs with at least one overlap-eligible exchange.
	wantEligible := map[string]bool{
		"jacobi":          true,
		"jacobi-converge": true,
		"jacobi3d":        true,
	}
	for name, prog := range loopir.Library() {
		p, err := Compile(prog, Options{Dist: specs[name]})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		exs := collectExchanges(p.Steps)
		eligible := 0
		for _, ex := range exs {
			if ex.Overlap != (ex.Carrier != nil) {
				t.Errorf("%s: exchange %v has Overlap=%v but Carrier=%v",
					name, ex.Parts, ex.Overlap, ex.Carrier)
			}
			if ex.Overlap {
				eligible++
			}
		}
		if wantEligible[name] {
			if eligible == 0 || eligible != len(exs) {
				t.Errorf("%s: %d/%d exchanges eligible, want all", name, eligible, len(exs))
			}
			if !strings.Contains(p.Source, "overlap: split-loop eligible") {
				t.Errorf("%s: eligibility missing from rendered source (plan hash would not record it)", name)
			}
		} else {
			if eligible != 0 {
				t.Errorf("%s: %d exchanges eligible, want none", name, eligible)
			}
			if strings.Contains(p.Source, "overlap: split-loop eligible") {
				t.Errorf("%s: rendered source claims eligibility", name)
			}
		}
	}
}

// TestOverlapCarrierIsConsumingLoop asserts the marked carrier is the loop
// that actually reads the ghosts — for jacobi-converge, the anew stencil
// loop (Var "i"), not the copy-back/reduction loop (Var "i2").
func TestOverlapCarrierIsConsumingLoop(t *testing.T) {
	p := mustCompile(t, loopir.JacobiConverge(),
		Options{Dist: depend.DistSpec{Dims: map[string]int{"a": 0, "anew": 0}, Loops: []string{"i", "i2"}}})
	exs := collectExchanges(p.Steps)
	if len(exs) != 1 || len(exs[0].Parts) != 2 {
		t.Fatalf("exchanges = %v, want one group of 2 parts", exs)
	}
	if c := exs[0].Carrier; c == nil || c.Var != "i" {
		t.Errorf("exchange %v carrier = %v, want the loop over \"i\"", exs[0].Parts, c)
	}
}

// TestOverlapIneligibleReductionCarrier: a stencil whose consuming loop
// accumulates into a replicated reduction array must stay synchronous —
// splitting the loop would reorder the floating-point accumulation.
func TestOverlapIneligibleReductionCarrier(t *testing.T) {
	n := loopir.Iv("n")
	i, j := loopir.Iv("i"), loopir.Iv("j")
	prog := &loopir.Program{
		Name:   "ghost-reduce",
		Params: []string{"n", "maxiter"},
		Arrays: []*loopir.ArrayDecl{
			{Name: "a", Dims: []loopir.IExpr{n, n}},
			{Name: "r", Dims: []loopir.IExpr{loopir.Ic(1)}},
		},
		Body: []loopir.Stmt{
			loopir.For("iter", loopir.Ic(0), loopir.Iv("maxiter"),
				loopir.For("i", loopir.Ic(1), loopir.Isub(n, loopir.Ic(1)),
					loopir.For("j", loopir.Ic(1), loopir.Isub(n, loopir.Ic(1)),
						loopir.Set(loopir.Fref("r", loopir.Ic(0)),
							loopir.Fadd(loopir.Fref("r", loopir.Ic(0)),
								loopir.Fmul(
									loopir.Fref("a", loopir.Isub(i, loopir.Ic(1)), j),
									loopir.Fref("a", loopir.Iadd(i, loopir.Ic(1)), j)))))),
				loopir.For("i2", loopir.Ic(1), loopir.Isub(n, loopir.Ic(1)),
					loopir.For("j2", loopir.Ic(1), loopir.Isub(n, loopir.Ic(1)),
						loopir.Set(loopir.Fref("a", loopir.Iv("i2"), loopir.Iv("j2")),
							loopir.Fmul(loopir.Fc(0.5), loopir.Fref("a", loopir.Iv("i2"), loopir.Iv("j2"))))))),
		},
	}
	p := mustCompile(t, prog, Options{Dist: depend.DistSpec{Dims: map[string]int{"a": 0}, Loops: []string{"i", "i2"}}})
	exs := collectExchanges(p.Steps)
	if len(exs) == 0 {
		t.Fatal("expected ghost exchanges for a[i-1]/a[i+1] reads")
	}
	for _, ex := range exs {
		if ex.Overlap || ex.Carrier != nil {
			t.Errorf("exchange %v marked eligible despite reduction in carrier", ex.Parts)
		}
	}
}

// TestOverlapIneligibleInPlaceStencil: a loop that writes the array it
// reads at a neighbour offset must stay synchronous. Split, the boundary
// unit at a run's left edge would run after the interior and read its
// right neighbour's new value where the sequential order reads the old one
// (FuzzCompileRun's corpus entry overlap-in-place-stencil runs it).
func TestOverlapIneligibleInPlaceStencil(t *testing.T) {
	prog, err := lang.Parse(`
program inplace(n, maxiter)
array a[n] init hash(1);
for iter = 0 to maxiter {
    for i = 0 to n-1 { a[i] = 0.5*(a[i] + a[i+1]); }
}`)
	if err != nil {
		t.Fatal(err)
	}
	exs := collectExchanges(mustCompile(t, prog, Options{}).Steps)
	if len(exs) != 1 || len(exs[0].Parts) != 1 {
		t.Fatalf("exchanges = %v, want one group of a's +1 ghost", exs)
	}
	if exs[0].Overlap || exs[0].Carrier != nil {
		t.Errorf("in-place stencil's exchange marked eligible: Overlap=%v Carrier=%v", exs[0].Overlap, exs[0].Carrier)
	}
}

// threeArraySrc is a stencil over three arrays: its sweep reads both
// neighbours of a, b and c, so the carrier's exchange group has six parts.
// With the second loop reading c's neighbours instead of the first, the
// group still forms at the carrier but no longer feeds one loop.
const threeArraySrc = `
program three(n, maxiter)
array a[n][n] init hash(1);
array b[n][n] init hash(2);
array c[n][n] init hash(3);
array s[n][n];
for iter = 0 to maxiter {
    for i = 1 to n-1 {
        for j = 1 to n-1 {
            s[i][j] = (a[i-1][j] + a[i+1][j]) + (b[i-1][j] + b[i+1][j]) + %s;
        }
    }
    for i2 = 1 to n-1 {
        for j2 = 1 to n-1 {
            a[i2][j2] = 0.125*s[i2][j2] + %s;
        }
    }
    for i3 = 1 to n-1 {
        for j3 = 1 to n-1 {
            b[i3][j3] = 0.5*(a[i3][j3] + b[i3][j3]);
            c[i3][j3] = 0.5*(a[i3][j3] + c[i3][j3]);
        }
    }
}
`

// TestOverlapGroupMarkedAtomically: the exchange group is one step, so
// eligibility is one decision — every part of a three-array stencil's group
// is overlapped under one carrier, and a single part that feeds a later
// loop keeps the whole group synchronous (parts on one array share a tag; a
// half-deferred group could consume each other's in-flight slices).
func TestOverlapGroupMarkedAtomically(t *testing.T) {
	compileThree := func(sweep, copyBack string) *Plan {
		t.Helper()
		prog, err := lang.Parse(fmt.Sprintf(threeArraySrc, sweep, copyBack))
		if err != nil {
			t.Fatal(err)
		}
		return mustCompile(t, prog, Options{Dist: depend.DistSpec{
			Dims: map[string]int{"a": 0, "b": 0, "c": 0, "s": 0}, Loops: []string{"i", "i2", "i3"},
		}})
	}

	p := compileThree("(c[i-1][j] + c[i+1][j])", "0.0*c[i2][j2]")
	exs := collectExchanges(p.Steps)
	if len(exs) != 1 || len(exs[0].Parts) != 6 {
		t.Fatalf("exchanges = %v, want one group of 6 parts", exs)
	}
	if !exs[0].Overlap || exs[0].Carrier == nil || exs[0].Carrier.Var != "i" {
		t.Errorf("three-array group: Overlap=%v Carrier=%v, want overlapped under loop i", exs[0].Overlap, exs[0].Carrier)
	}
	if got := strings.Count(p.Source, "overlap: split-loop eligible"); got != 6 {
		t.Errorf("rendered source marks %d parts eligible, want all 6:\n%s", got, p.Source)
	}

	p = compileThree("c[i][j]", "0.5*(c[i2-1][j2] + c[i2+1][j2])")
	exs = collectExchanges(p.Steps)
	if len(exs) != 1 || len(exs[0].Parts) != 6 {
		t.Fatalf("exchanges = %v, want one group of 6 parts", exs)
	}
	if exs[0].Overlap || exs[0].Carrier != nil {
		t.Errorf("group with parts for a later loop: Overlap=%v Carrier=%v, want synchronous", exs[0].Overlap, exs[0].Carrier)
	}
	if strings.Contains(p.Source, "overlap: split-loop eligible") {
		t.Errorf("rendered source marks part of a synchronous group eligible:\n%s", p.Source)
	}
}

// TestPlaceExchangesNamesStripLoop: an exchange carried by a strip-mined
// loop cannot be placed (Pre would repeat it per block). The compiler never
// produces one; if it ever does, the error must name that loop — it used to
// abandon the walk and report an unrelated "carrier loop not found".
func TestPlaceExchangesNamesStripLoop(t *testing.T) {
	c := &compiler{pendingExchanges: map[string][]GhostPart{"i": {{Array: "b", Delta: 1}}}}
	err := c.placeExchanges([]Step{&SeqLoop{Var: "iter", Body: []Step{&StripLoop{Var: "i"}}}})
	if err == nil || !strings.Contains(err.Error(), `strip-mined loop "i"`) {
		t.Fatalf("err = %v, want one naming strip-mined loop \"i\"", err)
	}
}
