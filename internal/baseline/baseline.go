// Package baseline implements the competing load-distribution strategies
// the paper discusses in its related-work section (§6), so the comparison
// can be made quantitatively on the same simulated cluster:
//
//   - Self-scheduling (central task queue): work units live in a queue at
//     the master; idle slaves request chunks (fixed-size or guided [7]
//     chunking). On a distributed-memory system the data
//     for every chunk must travel to the executing slave and the results
//     back — the central-location bottleneck the paper calls out in §3.1.
//
//   - Diffusion (nearest-neighbor balancing [16][17]): work is distributed
//     at startup and shifted between adjacent slaves when they detect an
//     imbalance, using only local information; global imbalances must
//     propagate hop by hop.
//
// The workload is the independent-iteration case both families assume:
// C = A·B computed one column at a time (the same arrays and arithmetic as
// the library MM program, so results are verified against the sequential
// reference).
package baseline

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/loopir"
	"repro/internal/vtime"
)

// MM is the baseline workload: independent columns of C = A·B.
type MM struct {
	N    int
	Inst *loopir.Instance // master-side arrays (a, b, c)
}

// NewMM builds the workload with the same deterministic data as the
// library MM program.
func NewMM(n int) (*MM, error) {
	inst, err := loopir.NewInstance(loopir.MatMul(), map[string]int{"n": n})
	if err != nil {
		return nil, err
	}
	return &MM{N: n, Inst: inst}, nil
}

// UnitFlops is the cost of one column: n inner products of length n
// (multiply + add + store per element).
func (m *MM) UnitFlops() float64 { return 3 * float64(m.N) * float64(m.N) }

// Reference computes the sequential result for verification.
func (m *MM) Reference() (*loopir.Array, error) {
	ref := m.Inst.Clone()
	if err := ref.Run(); err != nil {
		return nil, err
	}
	return ref.Arrays["c"], nil
}

// computeColumn computes column j of C into out (length n), reading the
// full A and column j of B.
func computeColumn(n int, a []float64, bcol []float64, out []float64) {
	for i := 0; i < n; i++ {
		sum := 0.0
		arow := a[i*n : i*n+n]
		for k := 0; k < n; k++ {
			sum += arow[k] * bcol[k]
		}
		out[i] = sum
	}
}

// column extracts column j of a row-major n x n matrix.
func column(n int, data []float64, j int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = data[i*n+j]
	}
	return out
}

// Result summarizes a baseline run.
type Result struct {
	Elapsed    time.Duration
	Usage      []cluster.Usage
	C          *loopir.Array
	Assigns    int // scheduling decisions (chunks handed out / transfers)
	UnitsMoved int // units whose data crossed the network after startup
}

// Verify checks the computed C against the sequential reference.
func (m *MM) Verify(r *Result) error {
	ref, err := m.Reference()
	if err != nil {
		return err
	}
	if d := ref.MaxAbsDiff(r.C); d != 0 {
		return fmt.Errorf("baseline: result differs from reference by %g", d)
	}
	return nil
}

// runKernel is shared scaffolding: build a kernel+cluster, run the given
// spawner, and collect usage.
func runKernel(cc cluster.Config, spawn func(k *vtime.Kernel, c *cluster.Cluster)) (time.Duration, []cluster.Usage, error) {
	k := vtime.NewKernel()
	c := cluster.New(k, cc)
	spawn(k, c)
	if err := k.Run(); err != nil {
		return 0, nil, err
	}
	usage := make([]cluster.Usage, cc.Slaves)
	for i := 0; i < cc.Slaves; i++ {
		n := c.Node(i)
		n.FinishAt(k.Now())
		usage[i] = n.Usage()
	}
	return k.Now(), usage, nil
}
