package loopir

import (
	"go/format"
	"strings"
	"testing"
)

func emitTestParams(p *Program) map[string]int {
	params := map[string]int{}
	for _, prm := range p.Params {
		params[prm] = 12
	}
	if _, ok := params["maxiter"]; ok {
		params["maxiter"] = 3
	}
	return params
}

// distLoops returns every loop directly eligible as a distributed region:
// each top-level loop, plus each loop nested directly under an iteration
// loop — the shapes the planner distributes.
func distLoops(p *Program) []*Loop {
	var out []*Loop
	for _, s := range p.Body {
		l, ok := s.(*Loop)
		if !ok {
			continue
		}
		inner := false
		for _, b := range l.Body {
			if il, ok := b.(*Loop); ok {
				out = append(out, il)
				inner = true
			}
		}
		if !inner {
			out = append(out, l)
		}
	}
	return out
}

// TestEmitSourceGofmtIdempotent: every emitted function must already be
// in canonical gofmt form.
func TestEmitSourceGofmtIdempotent(t *testing.T) {
	for name, p := range Library() {
		p := p
		t.Run(name, func(t *testing.T) {
			in, err := NewInstance(p, emitTestParams(p))
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string, ek *EmittedKernel) {
				t.Helper()
				formatted, err := format.Source([]byte(ek.Src))
				if err != nil {
					t.Fatalf("%s: emitted source does not parse: %v\n%s", label, err, ek.Src)
				}
				if strings.TrimSpace(string(formatted)) != strings.TrimSpace(ek.Src) {
					t.Errorf("%s: emitted source is not gofmt-clean:\n--- emitted ---\n%s\n--- gofmt ---\n%s",
						label, ek.Src, formatted)
				}
			}
			if ek, err := in.EmitKernelGo(p.Body, "Whole"); err == nil {
				check("whole body", ek)
			} else if !UsesIArr(p.Body) {
				// Data-dependent (IArr) programs are refused by every
				// compiled tier and run interpreted; anything else must emit.
				t.Fatalf("whole body: %v", err)
			}
			for _, l := range distLoops(p) {
				if ek, err := in.EmitRangeKernelGo(l.Var, l.Body, "Region"); err == nil {
					check("loop "+l.Var, ek)
				}
			}
		})
	}
}

// TestEmitJacobiSweepMetadata pins the contract for the canonical region:
// the jacobi i-sweep reads a, writes anew and has no free variables (n is
// a compile-time parameter, i/j are kernel locals).
func TestEmitJacobiSweepMetadata(t *testing.T) {
	p := Library()["jacobi"]
	in, err := NewInstance(p, map[string]int{"n": 16, "maxiter": 2})
	if err != nil {
		t.Fatal(err)
	}
	sweep := p.Body[0].(*Loop).Body[0].(*Loop)
	ek, err := in.EmitRangeKernelGo(sweep.Var, sweep.Body, "Kernel0")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(ek.Arrays, ","); got != "a,anew" {
		t.Errorf("Arrays = %q, want a,anew", got)
	}
	if len(ek.FreeVars) != 0 {
		t.Errorf("FreeVars = %v, want none (params fold, loop vars are locals)", ek.FreeVars)
	}
	if !strings.Contains(ek.Src, "func Kernel0(lo, hi int, regs []int, data [][]float64)") {
		t.Errorf("missing stable signature:\n%s", ek.Src)
	}
	for _, want := range []string{"o0++", "o1++"} {
		if !strings.Contains(ek.Src, want) {
			t.Errorf("expected strength-reduced offset advance %q in:\n%s", want, ek.Src)
		}
	}
	if !strings.Contains(ek.Src, "out of range") {
		t.Errorf("expected hoisted bounds-check panic in:\n%s", ek.Src)
	}
}
