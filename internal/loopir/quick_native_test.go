package loopir_test

import (
	"fmt"
	"math/rand"
	"os/exec"
	"testing"

	"repro/internal/aot"
	"repro/internal/loopir"
	"repro/internal/loopir/looptest"
)

// TestQuickNativeUnsafe is the unsafe half of the random-program
// differential (quick_test.go) on the native tier, over a handful of fixed
// seeds: the emitted whole-body kernel must panic exactly when Interpret
// errors, and leave Interpret's result bit for bit otherwise. Seeds 13,
// 33, 105 and 128 read one past a row at a flat offset still inside the
// array, which a check of the flat offset alone lets through.
func TestQuickNativeUnsafe(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go binary on PATH")
	}
	dir := t.TempDir()
	outcomes := map[bool]int{}
	for _, seed := range []int64{5, 6, 7, 8, 13, 33, 105, 128} {
		r := rand.New(rand.NewSource(seed))
		p := looptest.Program(r, true, false)
		p.Name = fmt.Sprintf("rand%d", seed)
		params := map[string]int{"n": 5 + r.Intn(6)}
		ref, err := loopir.NewInstance(p, params)
		if err != nil {
			t.Fatal(err)
		}
		fast := ref.Clone()
		want := ref.Interpret()
		prog, err := aot.Build(aot.Spec{Prog: p, Params: params, WholeBody: true, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		bk, err := prog.Kernels[0].Bind(fast.Arrays)
		if err != nil {
			t.Fatal(err)
		}
		got := func() (msg any) {
			defer func() { msg = recover() }()
			bk.Run(0, 0, nil)
			return nil
		}()
		outcomes[want == nil]++
		switch {
		case (got != nil) != (want != nil):
			t.Errorf("seed %d: interpreter %v, native panic %v", seed, want, got)
		case want == nil:
			if err := loopir.SameBits(ref, fast); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
	t.Logf("%d programs ran, %d failed where Interpret failed", outcomes[true], outcomes[false])
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Errorf("seeds gave %d passing and %d failing programs; want both", outcomes[true], outcomes[false])
	}
}
