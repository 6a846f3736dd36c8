// Package core implements the paper's central load-balancing algorithm
// (sections 3.2 and 4.3) as a pure, deterministic library with no I/O:
//
//   - trend-aware filtering of per-slave computation rates,
//   - proportional redistribution of work units with restricted
//     (adjacent-only, block-preserving) or unrestricted (direct) movement,
//   - the 10% projected-improvement threshold,
//   - the profitability determination that cancels moves whose estimated
//     cost exceeds their projected benefit,
//   - adaptive selection of the load-balancing period from the costs of
//     movement, master interaction, and the OS scheduling quantum, and its
//     conversion to a hook-skip count,
//   - startup grain-size selection for strip-mined loops.
//
// Balancer.StepGrouped is the one decision procedure: the paper's
// centralized master is its single-group case, per-unit weights are an
// argument, and a two-level hierarchy is the same step run per contiguous
// slot group with allotments shifted by a caller-supplied exchange.
//
// The run-time system (internal/dlb) feeds measurements in and carries the
// resulting instructions to the slaves; everything here is unit-testable in
// isolation.
package core
