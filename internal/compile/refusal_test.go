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

// refusalSpec is a case's directive; a case without one compiles under
// the derived directive.
func refusalSpec(t *testing.T, tc looptest.Refusal) depend.DistSpec {
	t.Helper()
	if tc.Dist == "" {
		return depend.DistSpec{}
	}
	spec, err := depend.ParseDist(tc.Dist)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCompileRefusals gives every refusal raised while walking a program's
// statements — by Validate and by the compiler's passes — one minimal
// source program, and checks the whole error. dist is the command-line
// directive, from which the compiler derives the distributed loops; a case
// without one compiles under the derived directive.
func TestCompileRefusals(t *testing.T) {
	for _, tc := range refusalTable(t) {
		if tc.Params != nil {
			continue
		}
		t.Run(tc.Name, func(t *testing.T) {
			prog, err := lang.Parse(tc.Src)
			if err == nil {
				_, err = Compile(prog, Options{Dist: refusalSpec(t, tc)})
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
			prog, err := lang.Parse(tc.Src)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := Compile(prog, Options{Dist: refusalSpec(t, tc)})
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
