package depend

import (
	"testing"

	"repro/internal/loopir"
)

// TestObservedKeysAreRefs: every access the interpreter reports for a
// library program at the default samples is one of the analysis's
// references, so no dependence can fall out of the pairing unnumbered.
func TestObservedKeysAreRefs(t *testing.T) {
	for name, p := range loopir.Library() {
		a := analyze(t, p)
		refs := map[refKey]string{}
		for _, r := range a.Refs {
			refs[refKey{r.StmtID, r.RefIdx}] = r.Ref.Array
		}
		for _, params := range defaultSamples(p) {
			in, err := loopir.NewInstance(p, params)
			if err != nil {
				t.Fatal(err)
			}
			seen := 0
			err = in.InterpretObserved(func(s loopir.Stmt, ord int, array string, _ int, _ map[string]int) error {
				sr, ok := a.stmts[s]
				if !ok {
					t.Fatalf("%s %v: observed a %T that collectRefs did not number", name, params, s)
				}
				if got, ok := refs[refKey{sr.id, ord}]; !ok || got != array {
					t.Fatalf("%s %v: access (statement %d, ordinal %d) of %s is not one of Refs", name, params, sr.id, ord, array)
				}
				seen++
				return nil
			})
			if err != nil {
				t.Fatalf("%s %v: %v", name, params, err)
			}
			if seen == 0 && name != "spmv" { // spmv's rows start at 32
				t.Errorf("%s %v: no access observed", name, params)
			}
		}
	}
}

// TestDepsForRefusesOutOfRange: a subscript out of range at a sample size
// fails the trace instead of the process, under every directive, with the
// interpreter's whole message. Analyze runs nothing, so it accepts the
// program.
func TestDepsForRefusesOutOfRange(t *testing.T) {
	n, i := loopir.Iv("n"), loopir.Iv("i")
	p := &loopir.Program{
		Name:   "oob",
		Params: []string{"n"},
		Arrays: []*loopir.ArrayDecl{{Name: "a", Dims: []loopir.IExpr{n}}},
		Body:   []loopir.Stmt{loopir.For("i", loopir.Ic(0), n, loopir.Set(loopir.Fref("a", i), loopir.Fref("a", loopir.Iadd(i, loopir.Ic(1)))))},
	}
	a, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	const want = `array "a" index 9 out of range [0,9) in dim 0`
	for _, spec := range []DistSpec{{}, {Dims: map[string]int{"a": 0}, Loops: []string{"i"}}} {
		if _, err := a.DepsFor(spec); err == nil || err.Error() != want {
			t.Errorf("DepsFor(%v): %v, want %q", spec, err, want)
		}
	}
}
