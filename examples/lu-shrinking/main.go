// LU example: a computation whose distributed work shrinks as it proceeds.
// Columns left of the pivot become inactive (they are never moved), the
// pivot column is broadcast by its owner each step, and the balancer's
// automatic frequency selection skips more hooks as per-step work shrinks
// (paper §4.7).
//
//	go run ./examples/lu-shrinking
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/dlb"
	"repro/internal/loopir"
)

func main() {
	prog := loopir.LU()
	params := map[string]int{"n": 160}

	plan, err := compile.Compile(prog, compile.Options{
		Dist: compile.LibraryDist(prog.Name),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("properties:", plan.Props.String())
	fmt.Println()

	res, err := dlb.Run(dlb.Config{
		Plan:     plan,
		Params:   params,
		DLB:      true,
		FlopCost: 50 * time.Microsecond,
	}, cluster.Config{
		Slaves: 4,
		Load:   []cluster.LoadProfile{cluster.Constant(1)},
	})
	if err != nil {
		log.Fatal(err)
	}

	_, ref, err := dlb.SequentialTime(plan, params, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run: %.2fs virtual, %d LB phases, %d moves\n",
		res.Elapsed.Seconds(), res.Phases, res.Moves)
	fmt.Printf("max |parallel - sequential| = %g\n\n", ref["a"].MaxAbsDiff(res.Final["a"]))

	fmt.Println("adaptive balancing frequency as the active column set shrinks:")
	fmt.Printf("%8s %8s %14s %6s %10s\n", "time", "phase", "active columns", "skip", "period")
	for _, s := range res.Trace {
		if s.Slave != 0 {
			continue
		}
		active := 0
		for _, s2 := range res.Trace {
			if s2.Phase == s.Phase {
				active += s2.Work
			}
		}
		fmt.Printf("%7.1fs %8d %14d %6d %10s\n",
			s.Time.Seconds(), s.Phase, active, s.SkipHooks, s.Period)
	}
}
