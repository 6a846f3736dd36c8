// SOR pipeline example: a stencil with loop-carried dependences across the
// distributed dimension. The compiler strip-mines the row loop, inserts
// sweep-start ghost exchanges and per-block pipeline transfers, and
// restricts work movement to adjacent slaves so the block distribution (and
// minimal boundary communication) is preserved — the paper's Figure 3.
//
//	go run ./examples/sor-pipeline
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
)

func main() {
	prog := loopir.SOR()
	params := map[string]int{"n": 256, "maxiter": 16}

	// Distribution directive: columns of b (the paper indexes b[col][row]).
	plan, err := compile.Compile(prog, compile.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("application properties:", plan.Props.String())
	fmt.Println("movement restricted to adjacent slaves:", plan.Restricted)
	fmt.Println()
	fmt.Println(plan.Source)

	// A competing job appears on slave 1 thirty virtual seconds in, and a
	// second one later — the restricted balancer must shift blocks through
	// intermediate slaves.
	flopCost := 150 * time.Microsecond
	res, err := dlb.Run(dlb.Config{
		Plan:     plan,
		Params:   params,
		DLB:      true,
		FlopCost: flopCost,
	}, cluster.Config{
		Slaves: 4,
		Load: []cluster.LoadProfile{
			nil, // slave 0 dedicated
			cluster.Steps{{At: 10 * time.Second, Tasks: 1}, {At: 60 * time.Second, Tasks: 2}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	seq, ref, err := dlb.SequentialTime(plan, params, flopCost)
	if err != nil {
		log.Fatal(err)
	}
	static, err := dlb.Run(dlb.Config{Plan: plan, Params: params, DLB: false, FlopCost: flopCost},
		cluster.Config{Slaves: 4, Load: []cluster.LoadProfile{
			nil,
			cluster.Steps{{At: 10 * time.Second, Tasks: 1}, {At: 60 * time.Second, Tasks: 2}},
		}})
	if err != nil {
		log.Fatal(err)
	}

	diff := ref["b"].MaxAbsDiff(res.Final["b"])
	fmt.Printf("sequential:            %7.2fs\n", seq.Seconds())
	fmt.Printf("static distribution:   %7.2fs (efficiency %.3f)\n",
		static.Elapsed.Seconds(), metrics.Efficiency(seq, static.Elapsed, static.Usage))
	fmt.Printf("with load balancing:   %7.2fs (efficiency %.3f)\n",
		res.Elapsed.Seconds(), metrics.Efficiency(seq, res.Elapsed, res.Usage))
	fmt.Printf("strip grain: %d rows; %d moves (%d columns shifted)\n", res.Grain, res.Moves, res.UnitsMoved)
	fmt.Printf("max |parallel - sequential| = %g\n", diff)
}
