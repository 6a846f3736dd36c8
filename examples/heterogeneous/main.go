// Heterogeneous example: workstations of different speeds plus a
// time-varying competing load. The balancer needs no per-machine weights —
// measured work units per second capture both heterogeneity and competing
// load (paper §3.2) — and the work assignment tracks the available
// processing power (paper Figure 9).
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/dlb"
	"repro/internal/loopir"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	prog := loopir.MatMul()
	params := map[string]int{"n": 160}
	plan, err := compile.Compile(prog, compile.Options{})
	if err != nil {
		log.Fatal(err)
	}

	flopCost := 30 * time.Microsecond
	cc := cluster.Config{
		Slaves: 4,
		// A fast server, two stock machines, and an old desktop.
		Speed: []float64{2.0, 1.0, 1.0, 0.5},
		// The fast server also runs someone's simulation half the time.
		Load: []cluster.LoadProfile{
			cluster.SquareWave{Period: 30 * time.Second, OnDuration: 15 * time.Second, Tasks: 1},
		},
	}
	res, err := dlb.Run(dlb.Config{
		Plan:     plan,
		Params:   params,
		DLB:      true,
		FlopCost: flopCost,
	}, cc)
	if err != nil {
		log.Fatal(err)
	}
	seq, ref, err := dlb.SequentialTime(plan, params, flopCost)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("4 heterogeneous workstations (speeds 2.0/1.0/1.0/0.5, wave load on the fast one)\n")
	fmt.Printf("sequential: %.2fs   parallel: %.2fs   speedup: %.2f   efficiency: %.3f\n",
		seq.Seconds(), res.Elapsed.Seconds(),
		metrics.Speedup(seq, res.Elapsed),
		metrics.Efficiency(seq, res.Elapsed, res.Usage))
	fmt.Printf("moves: %d (%d columns)   max |diff| vs sequential: %g\n\n",
		res.Moves, res.UnitsMoved, ref["c"].MaxAbsDiff(res.Final["c"]))

	// Plot each slave's work assignment over time.
	series := make([]*trace.Series, 4)
	for i := range series {
		series[i] = &trace.Series{Name: fmt.Sprintf("slave%d", i)}
	}
	for _, s := range res.Trace {
		series[s.Slave].Append(s.Time.Seconds(), float64(s.Work))
	}
	fmt.Println("work assignment over time (columns owned):")
	fmt.Print(trace.PlotASCII(72, 12, series...))
}
