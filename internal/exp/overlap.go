package exp

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dlb"
)

// The overlap experiment: how much ghost-exchange latency the split-loop
// async data plane hides. Each row runs one program at one slave count and
// one flop cost (the comm/compute ratio knob: cheaper flops shrink the
// compute side of a round until the 500 µs link latency dominates it) with
// the overlap on and off, on the same simulated cluster. Results are
// bit-identical by construction (TestOverlapBitIdentical); the only thing
// that moves is the makespan. The sor rows are the control group: its
// exchange feeds a pipelined strip loop, so the compiler refuses to split
// it and both columns run the synchronous schedule (speedup ≈ 1.0,
// overlap_rounds = 0).

// OverlapRow is one (program, slaves, flop cost) cell of the sweep.
type OverlapRow struct {
	Prog      string  `json:"prog"`
	Slaves    int     `json:"slaves"`
	FlopCost  string  `json:"flop_cost"`
	SyncMS    float64 `json:"sync_ms"`    // makespan, overlap off
	OverlapMS float64 `json:"overlap_ms"` // makespan, overlap on
	Speedup   float64 `json:"speedup"`    // sync/overlap (">1": overlap wins)
	Rounds    int64   `json:"overlap_rounds"`
	Fallback  int64   `json:"overlap_fallback"`
}

// OverlapReport is the experiment's result.
type OverlapReport struct {
	Header
	Rows []OverlapRow       `json:"rows"`
	Best map[string]float64 `json:"best_speedup"` // per program
}

// Overlap runs the ghost-overlap sweep: jacobi (split-eligible) and sor
// (pipelined, falls back to synchronous) at 2–8 slaves across three
// comm/compute regimes.
func Overlap(s Scale) (*OverlapReport, error) {
	jacobiN, jacobiIter := 128, 8
	sorN, sorIter := 96, 6
	slaveCounts := []int{2, 4, 8}
	if s.MM <= Quick.MM { // reduced scale for tests
		jacobiN, jacobiIter = 48, 4
		sorN, sorIter = 32, 4
		slaveCounts = []int{2, 4}
	}
	costs := []struct {
		label string
		cost  time.Duration
	}{
		{"1µs", time.Microsecond},
		{"125ns", 125 * time.Nanosecond},
		{"31ns", 31 * time.Nanosecond},
	}
	progs := []struct {
		name   string
		params map[string]int
	}{
		{"jacobi", map[string]int{"n": jacobiN, "maxiter": jacobiIter}},
		{"sor", map[string]int{"n": sorN, "maxiter": sorIter}},
	}

	rep := &OverlapReport{
		Header: virtual("virtual-time makespans; flop cost sets the comm/compute ratio against the 500µs link latency"),
		Best:   map[string]float64{},
	}
	for _, p := range progs {
		app, err := NewApp(p.name, p.params, paperSORSeq)
		if err != nil {
			return nil, err
		}
		for _, c := range costs {
			for _, slaves := range slaveCounts {
				run := func(mode string) (*dlb.Result, error) {
					cfg := dlb.Config{
						Plan:     app.Plan,
						Params:   app.Params,
						DLB:      true,
						FlopCost: c.cost,
						Overlap:  mode,
					}
					return dlb.Run(cfg, cluster.Config{Slaves: slaves})
				}
				off, err := run(dlb.OverlapDisabled)
				if err != nil {
					return nil, fmt.Errorf("exp: %s P=%d overlap off: %w", p.name, slaves, err)
				}
				on, err := run(dlb.OverlapEnabled)
				if err != nil {
					return nil, fmt.Errorf("exp: %s P=%d overlap on: %w", p.name, slaves, err)
				}
				row := OverlapRow{
					Prog:      p.name,
					Slaves:    slaves,
					FlopCost:  c.label,
					SyncMS:    float64(off.Elapsed.Microseconds()) / 1e3,
					OverlapMS: float64(on.Elapsed.Microseconds()) / 1e3,
					Rounds:    on.Counters.Get("overlap_rounds"),
					Fallback:  on.Counters.Get("overlap_fallback"),
				}
				if on.Elapsed > 0 {
					row.Speedup = float64(off.Elapsed) / float64(on.Elapsed)
				}
				rep.Rows = append(rep.Rows, row)
				if row.Speedup > rep.Best[p.name] {
					rep.Best[p.name] = row.Speedup
				}
			}
		}
	}
	return rep, nil
}
