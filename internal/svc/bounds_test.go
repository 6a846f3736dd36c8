package svc

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/dlb"
	"repro/internal/lang"
	"repro/internal/loopir"
	"repro/internal/netrun"
	"repro/internal/testutil/leak"
)

// overrunProgram is the bounds rule's reproducer, b[i][j] = a[i][j+1] for
// i < n-1, repeated maxiter times over n×m arrays with j < n-1: at n = m it
// stays in range; at m = n-1 it reads one past each row of a at a flat
// offset still inside a, where Interpret reports a's dim 1 out of range.
// The compiler runs no program code, so it compiles the program whatever
// the sizes, and the runtime's bounds rule is the one range check.
func overrunProgram() *loopir.Program {
	n, m, i, j := loopir.Iv("n"), loopir.Iv("m"), loopir.Iv("i"), loopir.Iv("j")
	hash, spec, _ := loopir.Initializer("hash", 3)
	below := loopir.Isub(n, loopir.Ic(1))
	return &loopir.Program{
		Name:   "overrun",
		Params: []string{"n", "m", "maxiter"},
		Arrays: []*loopir.ArrayDecl{
			{Name: "a", Dims: []loopir.IExpr{n, m}, Init: hash, InitSpec: spec},
			{Name: "b", Dims: []loopir.IExpr{n, m}},
		},
		Body: []loopir.Stmt{
			loopir.For("iter", loopir.Ic(0), loopir.Iv("maxiter"),
				loopir.For("i", loopir.Ic(0), below,
					loopir.For("j", loopir.Ic(0), below,
						loopir.Set(loopir.Fref("b", i, j), loopir.Fref("a", i, loopir.Iadd(j, loopir.Ic(1))))))),
		},
	}
}

// namesADim1 reports whether a failure names array a and dimension 1.
func namesADim1(msg string) bool {
	return strings.Contains(msg, `"a"`) && strings.Contains(msg, "dim 1")
}

// TestOverrunFailsEndToEnd runs the reproducer through the simulator on
// two slaves and as one service job: each fails naming a and dim 1. The
// same Service then completes a library job, and nothing either started
// outlives it.
func TestOverrunFailsEndToEnd(t *testing.T) {
	base := runtime.NumGoroutine()
	prog, err := lang.Parse(lang.Format(overrunProgram()))
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int{"n": 8, "m": 7, "maxiter": 2}
	dist := depend.DistSpec{Dims: map[string]int{"a": 0, "b": 0}, Loops: []string{"i"}}
	if in, err := loopir.NewInstance(prog, params); err != nil {
		t.Fatal(err)
	} else if err := in.Interpret(); err == nil || !namesADim1(err.Error()) {
		t.Fatalf("Interpret: %v, want a's dim 1 out of range", err)
	}
	plan, err := compile.Compile(prog, compile.Options{Dist: dist})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dlb.Run(dlb.Config{Plan: plan, Params: params, DLB: true}, cluster.Config{Slaves: 2}); err == nil || !namesADim1(err.Error()) {
		t.Errorf("dlb.Run: %v, want a failure naming a and dim 1", err)
	}

	addrs, srvs := startPool(t, 2, netrun.ServerOptions{})
	s := newTestService(t, 2, netrun.ServerOptions{}, Options{Addrs: addrs})
	id, err := s.Submit(JobSpec{Program: lang.Format(prog), Params: params, Slaves: 2, DistDims: dist.Dims, DistLoops: dist.Loops})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitFailed(t, s, id); !namesADim1(st.Error) {
		t.Errorf("job %s failed with %q, want a failure naming a and dim 1", id, st.Error)
	}
	spec := testSpec(t, "mm", 48, 0, 2)
	if id, err = s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, 30*time.Second, StateDone)
	checkResultSums(t, s, id, refSums(t, spec))

	s.Close()
	for _, srv := range srvs {
		srv.Close()
	}
	leak.Settle(t, base)
}

// waitFailed polls until the job fails and returns its status.
func waitFailed(t *testing.T, s *Service, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(raceScale(30 * time.Second))
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case st.State == StateFailed:
			return st
		case st.State == StateDone:
			t.Fatalf("job %s completed; want it to fail", id)
		case time.Now().After(deadline):
			t.Fatalf("job %s stuck in %s, want failed", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
