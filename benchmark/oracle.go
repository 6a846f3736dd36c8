package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/aot"
	"repro/internal/loopir"
	"repro/internal/svc"
)

// Verification is part of every sample: each operation's gathered arrays
// must equal a sequential run of the same source bit for bit.
//
// The sequential interpreter (Instance.Interpret) is the independent
// oracle, but at the benchmark's sizes it needs 14 s (mm n=384) to four
// minutes (jacobi 512x1500) per reference, which the run budget cannot
// pay on every invocation. So the oracle is a chain: the full-size
// reference comes from a fast sequential executor (Instance.Run, or the
// whole-body AOT kernel where even that takes 15 s), and that same
// executor is checked against Interpret, bit for bit, on the same program
// at a reduced instance ("anchor") in every run.

// reference is one program instance's sequential result.
type reference struct {
	arrays map[string]*loopir.Array
	flops  int64
	// seq is how long the sequential executor took at full size.
	seq time.Duration
}

// executor names the fast sequential path a reference is computed with.
type executor string

const (
	execRun executor = "Instance.Run" // kernel-first sequential path
	execAOT executor = "aot whole-body kernel"
)

// runSequential executes prog at params on a fresh instance with the given
// executor and returns the instance and the time the execution took.
func runSequential(prog *loopir.Program, params map[string]int, ex executor, cacheDir string) (*loopir.Instance, time.Duration, error) {
	in, err := loopir.NewInstance(prog, params)
	if err != nil {
		return nil, 0, err
	}
	switch ex {
	case execRun:
		t0 := time.Now()
		err = in.Run()
		return in, time.Since(t0), err
	case execAOT:
		ap, err := aot.Build(aot.Spec{Prog: prog, Params: params, WholeBody: true, CacheDir: cacheDir})
		if err != nil {
			return nil, 0, err
		}
		bk, err := ap.Kernels[0].Bind(in.Arrays)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		bk.Run(0, 0, nil)
		return in, time.Since(t0), nil
	}
	return nil, 0, fmt.Errorf("unknown executor %q", ex)
}

// newReference computes the full-size sequential result.
func newReference(prog *loopir.Program, params map[string]int, ex executor, cacheDir string) (*reference, error) {
	in, d, err := runSequential(prog, params, ex, cacheDir)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", prog.Name, err)
	}
	return &reference{arrays: in.Arrays, flops: flopCount(prog.Body, params), seq: d}, nil
}

// anchor checks the executor against the interpreter on a reduced instance
// of the same program: any array differing in any bit is an error.
func anchor(prog *loopir.Program, params map[string]int, ex executor, cacheDir string) error {
	want, err := loopir.NewInstance(prog, params)
	if err != nil {
		return err
	}
	if err := want.Interpret(); err != nil {
		return err
	}
	got, _, err := runSequential(prog, params, ex, cacheDir)
	if err != nil {
		return err
	}
	if d := maxDiff(want.Arrays, got.Arrays); d != 0 {
		return fmt.Errorf("anchor %s %v: %s differs from the interpreter by %g", prog.Name, params, ex, d)
	}
	return nil
}

// maxDiff is the largest absolute element difference over the gathered
// arrays (a run gathers the arrays it distributed, not every array of the
// program). Gathering nothing, or an array the reference does not have,
// counts as infinitely wrong.
func maxDiff(want, got map[string]*loopir.Array) float64 {
	if len(got) == 0 {
		return math.Inf(1)
	}
	worst := 0.0
	for name, g := range got {
		w := want[name]
		if w == nil {
			return math.Inf(1)
		}
		if d := w.MaxAbsDiff(g); d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	return worst
}

// check verifies one operation's gathered arrays.
func (r *reference) check(final map[string]*loopir.Array) error {
	if d := maxDiff(r.arrays, final); d != 0 {
		return fmt.Errorf("result differs from the sequential reference: max |diff| = %g", d)
	}
	return nil
}

// arraySum is one array's record in the service's documented result
// checksum: sha256 over the little-endian float64 bits, row-major.
type arraySum = svc.ArraySum

// checksums fingerprints arrays the way svc.JobResult.Arrays does, in
// sorted name order.
func checksums(arrays map[string]*loopir.Array) []arraySum {
	names := make([]string, 0, len(arrays))
	for name := range arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	sums := make([]arraySum, 0, len(names))
	for _, name := range names {
		a := arrays[name]
		h := sha256.New()
		var buf [8]byte
		for _, v := range a.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		sums = append(sums, arraySum{Name: name, Dims: a.Dims, SHA256: hex.EncodeToString(h.Sum(nil))})
	}
	return sums
}

// sameSums reports whether every array a service result carries has the
// reference's checksum (and that it carries at least one).
func sameSums(want, got []arraySum) bool {
	ref := map[string]string{}
	for _, w := range want {
		ref[w.Name] = w.SHA256
	}
	for _, g := range got {
		if ref[g.Name] != g.SHA256 {
			return false
		}
	}
	return len(got) > 0
}
