package dlb

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/loopir"
)

// walkUnitSlice is the pre-fast-path gather: the per-element closure walk
// (the oracle in data_test.go), benchmarked as the baseline.
func walkUnitSlice(a *loopir.Array, dim, u int) []float64 {
	out := make([]float64, 0, unitSize(a, dim))
	forEachUnitElem(a, dim, u, -1, 0, 0, func(flat int) {
		out = append(out, a.Data[flat])
	})
	return out
}

func walkSetUnitSlice(a *loopir.Array, dim, u int, vals []float64) {
	i := 0
	forEachUnitElem(a, dim, u, -1, 0, 0, func(flat int) {
		a.Data[flat] = vals[i]
		i++
	})
}

// BenchmarkUnitCopy compares the contiguous-copy kernels against the
// element walk on the shapes the runtime actually moves: a row of a
// row-distributed 2D array (fully contiguous — one copy()), a column of a
// column-distributed 2D array (the MM hot path — a strided loop), and a
// plane of a 3D array (runs of the innermost extent).
func BenchmarkUnitCopy(b *testing.B) {
	cases := []struct {
		name string
		dims []int
		dim  int
	}{
		{"2d-row", []int{512, 512}, 0},
		{"2d-col", []int{512, 512}, 1},
		{"3d-mid", []int{64, 64, 64}, 1},
	}
	for _, c := range cases {
		a := loopir.NewArray("a", c.dims)
		for i := range a.Data {
			a.Data[i] = float64(i)
		}
		u := c.dims[c.dim] / 2
		bytes := int64(8 * unitSize(a, c.dim))

		b.Run(c.name+"/walk", func(b *testing.B) {
			b.SetBytes(bytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vals := walkUnitSlice(a, c.dim, u)
				walkSetUnitSlice(a, c.dim, u, vals)
			}
		})
		b.Run(c.name+"/fast", func(b *testing.B) {
			b.SetBytes(bytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				vals := unitSlice(a, c.dim, u)
				setUnitSlice(a, c.dim, u, vals)
			}
		})
	}
}

// BenchmarkSlavesPerHost answers "how do I use the other CPUs of this
// host": a full RunReal of the jacobi stencil on one slave versus one slave
// per CPU. The interesting figure is the elapsed-time ratio between the two
// sub-benchmarks, not either absolute number (a full run includes start-up
// grain measurement).
func BenchmarkSlavesPerHost(b *testing.B) {
	cpus := runtime.NumCPU()
	if cpus < 2 {
		b.Skip("one CPU: nothing to compare")
	}
	plan := planFor(b, "jacobi")
	params := map[string]int{"n": 512, "maxiter": 8}
	for _, slaves := range []int{1, cpus} {
		b.Run(fmt.Sprintf("slaves=%d", slaves), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunReal(Config{Plan: plan, Params: params, DLB: true}, slaves); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimSorWave is the benchmark's sim_sor_wave workload as one
// dlb.Run: sor n=512 × 24 sweeps on eight simulated slaves, a 20 s/10 s
// square wave on slave 3, FlopCost 5 µs. Its wall time is the simulator's
// own plumbing (process switches, per-slave instance set-up, the step
// loop's bookkeeping) around about a quarter of kernel work.
func BenchmarkSimSorWave(b *testing.B) {
	const slaves = 8
	load := make([]cluster.LoadProfile, slaves)
	for i := range load {
		load[i] = cluster.NoLoad{}
	}
	load[slaves/2-1] = cluster.SquareWave{Period: 20 * time.Second, OnDuration: 10 * time.Second, Tasks: 1}
	cfg := Config{
		Plan: planFor(b, "sor"), Params: map[string]int{"n": 512, "maxiter": 24},
		DLB: true, FlopCost: 5 * time.Microsecond,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, cluster.Config{Slaves: slaves, Load: load}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyncExchange is the row the one-step exchange group moves, on
// goroutine slaves: jacobi n=256 × 200 sweeps on a balanced pair with the
// overlap off, so every sweep is a two-part group — both boundary rows sent,
// then both received — followed by two short kernels. µs/sweep is one run's
// wall time (start-up included) over its sweeps.
func BenchmarkSyncExchange(b *testing.B) {
	const sweeps = 200
	cfg := Config{
		Plan: planFor(b, "jacobi"), Params: map[string]int{"n": 256, "maxiter": sweeps},
		DLB: true, Overlap: OverlapDisabled,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunReal(cfg, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*sweeps), "µs/sweep")
}
