package compile

import (
	"testing"

	"repro/internal/depend"
	"repro/internal/lang"
	"repro/internal/loopir/looptest"
)

// refusalTable reads testdata/refusals.txt, the one table of programs the
// compiler refuses.
func refusalTable(t *testing.T) []looptest.Refusal {
	t.Helper()
	cases, err := looptest.Refusals("testdata/refusals.txt")
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

// TestCompileRefusals gives every refusal raised while walking a program's
// statements — by Validate and by the compiler's passes — one minimal
// source program, and checks the whole error. dist is the command-line
// directive; the compiler derives the distributed loops from it.
func TestCompileRefusals(t *testing.T) {
	for _, tc := range refusalTable(t) {
		if tc.Params != nil {
			continue
		}
		t.Run(tc.Name, func(t *testing.T) {
			spec, err := depend.ParseDist(tc.Dist)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lang.Parse(tc.Src)
			if err == nil {
				_, err = Compile(prog, Options{Dist: spec})
			}
			if err == nil {
				t.Fatalf("accepted; want %q", tc.Want)
			}
			if err.Error() != tc.Want {
				t.Fatalf("error %q, want %q", err, tc.Want)
			}
		})
	}
}

// TestInstantiateRefusals gives each parameter binding a compiled plan
// cannot run at one program: Instantiate must refuse it rather than let a
// slave skip iterations the sequential program runs.
func TestInstantiateRefusals(t *testing.T) {
	for _, tc := range refusalTable(t) {
		if tc.Params == nil {
			continue
		}
		t.Run(tc.Name, func(t *testing.T) {
			spec, err := depend.ParseDist(tc.Dist)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lang.Parse(tc.Src)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := Compile(prog, Options{Dist: spec})
			if err != nil {
				t.Fatal(err)
			}
			_, err = plan.InstantiateHook(tc.Params, 1, 0)
			if err == nil || err.Error() != tc.Want {
				t.Fatalf("Instantiate: %v, want %q", err, tc.Want)
			}
		})
	}
}
