// Package metrics computes the paper's evaluation quantities — speedup and
// efficiency of resource usage (§5.1).
package metrics

import (
	"time"

	"repro/internal/cluster"
)

// Speedup is sequential time over parallel elapsed time.
func Speedup(seq, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return seq.Seconds() / elapsed.Seconds()
}

// Efficiency implements the paper's formula:
//
//	efficiency = time_sequential / Σ_processors (time_elapsed − time_competing)
//
// where time_competing is the CPU consumed by competing tasks on each slave
// during the run (the getrusage measurement). On dedicated homogeneous
// nodes it reduces to the classic speedup/P.
func Efficiency(seq, elapsed time.Duration, usage []cluster.Usage) float64 {
	var avail time.Duration
	for _, u := range usage {
		a := elapsed - u.CompetingCPU
		if a < 0 {
			a = 0
		}
		avail += a
	}
	if avail <= 0 {
		return 0
	}
	return seq.Seconds() / avail.Seconds()
}
