// Fault-recovery example: the elastic runtime surviving failures the
// paper's master/slave design cannot. A deterministic fault plan crashes
// one slave mid-run and registers a fresh node a little later; the master's
// heartbeat leases detect the death, the computation rolls back to the last
// periodic checkpoint, the dead slave's block is reassigned, and the joiner
// is folded in at the next checkpoint boundary — all while the final arrays
// stay bit-identical to the sequential execution.
//
//	go run ./examples/fault-recovery
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/dlb"
	"repro/internal/fault"
	"repro/internal/loopir"
	"repro/internal/metrics"
)

func main() {
	prog := loopir.MatMul()
	params := map[string]int{"n": 128}
	plan, err := compile.Compile(prog, compile.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// The scenario: slave 1 dies 12 virtual seconds in; an idle workstation
	// volunteers at 18s and is admitted at the next checkpoint.
	fp := (&fault.Plan{}).
		CrashAt(1, 12*time.Second).
		JoinAt(18 * time.Second)

	flopCost := 15 * time.Microsecond
	run := func(plan2 *fault.Plan) *dlb.Result {
		res, err := dlb.Run(dlb.Config{
			Plan:     plan,
			Params:   params,
			DLB:      true,
			FlopCost: flopCost,
			Fault:    plan2,
			Ckpt:     fault.CkptPolicy{MinInterval: 2 * time.Second, MaxInterval: 6 * time.Second},
		}, cluster.Config{Slaves: 4})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	free := run(&fault.Plan{})
	res := run(fp)

	seq, ref, err := dlb.SequentialTime(plan, params, flopCost)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fault plan:")
	for _, e := range fp.Events {
		fmt.Println("   ", e)
	}
	fmt.Println()
	fmt.Println("fault-handling trace:")
	fmt.Print(res.FaultLog)
	fmt.Println()
	fmt.Printf("sequential:        %7.2fs\n", seq.Seconds())
	fmt.Printf("fault-free:        %7.2fs (efficiency %.3f)\n",
		free.Elapsed.Seconds(), metrics.Efficiency(seq, free.Elapsed, free.Usage))
	fmt.Printf("crash + join:      %7.2fs (efficiency %.3f, %d checkpoints, %d recoveries)\n",
		res.Elapsed.Seconds(), metrics.Efficiency(seq, res.Elapsed, res.Usage),
		res.Checkpoints, res.Recoveries)
	fmt.Printf("evicted %v, joined %v\n", res.Evicted, res.Joined)
	fmt.Printf("max |parallel - sequential| = %g\n", ref["c"].MaxAbsDiff(res.Final["c"]))
}
