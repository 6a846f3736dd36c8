// Command dlbrun executes one application on a simulated workstation
// cluster and reports timing, speedup, efficiency, and (optionally) the
// load-balancing trace.
//
// Usage:
//
//	dlbrun -prog mm -n 192 -slaves 4 -load const:1 [-nodlb] [-sync] [-trace]
//	dlbrun -prog mm -n 256 -slaves 127.0.0.1:7101,127.0.0.1:7102   # distributed
//
// -slaves takes either a count (simulated cluster or, with -real, goroutine
// workers) or a comma-separated list of dlbd daemon addresses, which runs
// the master over real TCP against separate slave processes (see cmd/dlbd).
//
// Load scenarios: none | const:<tasks> | wave:<periodSec>:<onSec>:<tasks>
// (applied to slave 0; other slaves stay dedicated).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/dlb"
	"repro/internal/fault"
	"repro/internal/loopir"
	"repro/internal/metrics"
	"repro/internal/netrun"
	"repro/internal/trace"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dlbrun:", err)
	os.Exit(1)
}

func parseLoad(s string) (cluster.LoadProfile, error) {
	switch {
	case s == "" || s == "none":
		return cluster.NoLoad{}, nil
	case strings.HasPrefix(s, "const:"):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "const:"))
		if err != nil {
			return nil, err
		}
		return cluster.Constant(n), nil
	case strings.HasPrefix(s, "wave:"):
		parts := strings.Split(strings.TrimPrefix(s, "wave:"), ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("wave load needs period:on:tasks")
		}
		period, err1 := strconv.ParseFloat(parts[0], 64)
		on, err2 := strconv.ParseFloat(parts[1], 64)
		tasks, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("bad wave load %q", s)
		}
		return cluster.SquareWave{
			Period:     time.Duration(period * float64(time.Second)),
			OnDuration: time.Duration(on * float64(time.Second)),
			Tasks:      tasks,
		}, nil
	}
	return nil, fmt.Errorf("unknown load %q", s)
}

func main() {
	progName := flag.String("prog", "mm", "program: mm, sor, lu, jacobi, axpy, periodic-sor, spmv, pbin")
	file := flag.String("file", "", "run a source file instead of a library program")
	distFlag := flag.String("dist", "", "distribution directive array:dim[,array:dim] (default: the program's LibraryDist, else derived)")
	n := flag.Int("n", 128, "problem size")
	maxiter := flag.Int("maxiter", 12, "outer iterations (sor, jacobi, axpy)")
	slavesFlag := flag.String("slaves", "4", "slave count, or comma-separated dlbd addresses for a distributed TCP run")
	listen := flag.String("listen", "127.0.0.1:0", "distributed runs: master join/reconnect listener address")
	extra := flag.Int("extra", 0, "distributed runs: joiner slots beyond the initial membership")
	loadSpec := flag.String("load", "none", "competing load on slave 0: none | const:N | wave:period:on:N")
	nodlb := flag.Bool("nodlb", false, "disable dynamic load balancing (static distribution)")
	sync := flag.Bool("sync", false, "synchronous master interactions instead of pipelined")
	showTrace := flag.Bool("trace", false, "print the per-phase balancing trace for slave 0")
	showStats := flag.Bool("stats", false, "print the engine's event counters")
	flopCost := flag.Duration("flopcost", time.Microsecond, "virtual CPU time per flop (1µs ≈ Sun 4/330)")
	real := flag.Bool("real", false, "run for real: wall-clock goroutines instead of the simulated cluster")
	kernel := flag.String("kernel", "", `execution tier for distributed-loop bodies: "interp", "kernel" (default) or "aot"`)
	costModel := flag.String("costmodel", "", `balancer's view of work units: "uniform" (default) or "learned" (per-unit costs measured online)`)
	overlap := flag.Bool("overlap", true, "overlap eligible ghost exchanges with interior computation (-overlap=false forces synchronous exchanges)")
	groups := flag.Int("groups", 0, "hierarchical balancing: partition slaves into this many leader-led groups (0/1: flat; refused with -fault or -slaves host:port)")
	groupEvery := flag.Int("group-every", 0, "inter-group diffusive exchange cadence in balancing rounds (0: default 4)")
	reportCost := flag.Duration("report-cost", 0, "per-report CPU charge on whoever collects a status (master, or group leaders)")
	drag := flag.Float64("drag", 1.0, "with -real: slow slave 0 by this factor (emulated loaded machine)")
	faultSpec := flag.String("fault", "", "fault plan: crash:S@T | stall:S@T:D | drop:S@T:D | join@T (comma-separated; seconds)")
	lease := flag.Duration("lease", 0, "failure-detection lease floor (with -fault; 0: default)")
	hbEvery := flag.Duration("hb", 0, "heartbeat interval (with -fault; 0: default)")
	ckptMin := flag.Duration("ckpt-min", 0, "minimum checkpoint interval (with -fault; 0: default)")
	ckptMax := flag.Duration("ckpt-max", 0, "maximum checkpoint interval (with -fault; 0: default)")
	ckptOff := flag.Bool("ckpt-off", false, "disable periodic checkpoints (recovery restarts from the initial distribution)")
	flag.Parse()

	// -slaves is a count, or a host:port list selecting the TCP runtime.
	var netAddrs []string
	slaves := 0
	if strings.Contains(*slavesFlag, ":") {
		netAddrs = strings.Split(*slavesFlag, ",")
		slaves = len(netAddrs)
	} else {
		var err error
		if slaves, err = strconv.Atoi(*slavesFlag); err != nil {
			fail(fmt.Errorf("bad -slaves %q: count or host:port,... expected", *slavesFlag))
		}
	}

	prog, spec, err := compile.LoadProgram(*file, *distFlag, *progName)
	if err != nil {
		fail(err)
	}
	params := map[string]int{}
	for _, prm := range prog.Params {
		if strings.Contains(prm, "iter") {
			params[prm] = *maxiter
		} else {
			params[prm] = *n
		}
	}
	plan, err := compile.Compile(prog, compile.Options{Dist: spec})
	if err != nil {
		fail(err)
	}
	load, err := parseLoad(*loadSpec)
	if err != nil {
		fail(err)
	}

	cfg := dlb.Config{
		Plan:               plan,
		Params:             params,
		DLB:                !*nodlb,
		Synchronous:        *sync,
		FlopCost:           *flopCost,
		Kernel:             *kernel,
		CostModel:          *costModel,
		Groups:             *groups,
		GroupExchangeEvery: *groupEvery,
		PerReportCost:      *reportCost,
	}
	if !*overlap {
		cfg.Overlap = dlb.OverlapDisabled
	}
	if *faultSpec != "" {
		fp, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			fail(err)
		}
		cfg.Fault = fp
		cfg.Detect = fault.DetectorConfig{MinLease: *lease, HeartbeatEvery: *hbEvery}
		cfg.Ckpt = fault.CkptPolicy{MinInterval: *ckptMin, MaxInterval: *ckptMax, Disable: *ckptOff}
	}
	var res *dlb.Result
	switch {
	case netAddrs != nil:
		res, err = netrun.RunMaster(cfg, netAddrs, netrun.MasterOptions{
			Listen:     *listen,
			ExtraSlots: *extra,
			Logf: func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, "dlbrun: "+format+"\n", args...)
			},
		})
	case *real:
		if *drag > 1 {
			cfg.RealDrag = []float64{*drag}
		}
		res, err = dlb.RunReal(cfg, slaves)
	default:
		cc := cluster.Config{Slaves: slaves, Load: []cluster.LoadProfile{load}}
		res, err = dlb.Run(cfg, cc)
	}
	if err != nil {
		fail(err)
	}
	if res.AotInfo != nil {
		// One line per run so harnesses can assert the cache went warm.
		fmt.Fprintf(os.Stderr, "dlbrun: %s\n", res.AotInfo)
	}
	seq, ref, err := dlb.SequentialTime(plan, params, *flopCost)
	if err != nil {
		fail(err)
	}
	wall := *real || netAddrs != nil
	if wall {
		// In real and distributed modes the baseline is a timed sequential
		// run, not the calibrated virtual one.
		inst, err := loopir.NewInstance(plan.Prog, params)
		if err != nil {
			fail(err)
		}
		t0 := time.Now()
		if err := inst.Run(); err != nil {
			fail(err)
		}
		seq = time.Since(t0)
		ref = inst.Arrays
	}

	worst := 0.0
	for name, want := range ref {
		if got := res.Final[name]; got != nil {
			if d := want.MaxAbsDiff(got); d > worst {
				worst = d
			}
		}
	}

	kind := "simulated workstations"
	switch {
	case netAddrs != nil:
		kind = "slave processes over TCP (wall clock)"
	case *real:
		kind = "real goroutine workers (wall clock)"
	}
	fmt.Printf("%s n=%d on %d %s (load %s, dlb=%v)\n",
		prog.Name, *n, slaves, kind, *loadSpec, !*nodlb)
	unit := "virtual"
	if wall {
		unit = "wall"
	}
	fmt.Printf("  sequential (%s):  %8.2fs\n", unit, seq.Seconds())
	fmt.Printf("  parallel   (%s):  %8.2fs\n", unit, res.Elapsed.Seconds())
	fmt.Printf("  speedup:               %8.2f\n", metrics.Speedup(seq, res.Elapsed))
	if netAddrs == nil {
		// Per-slave busy time is process-local in the distributed runtime;
		// the master cannot aggregate it, so no efficiency figure there.
		fmt.Printf("  efficiency:            %8.3f\n", metrics.Efficiency(seq, res.Elapsed, res.Usage))
	}
	fmt.Printf("  LB phases: %d, moves: %d (%d units), strip grain: %d\n",
		res.Phases, res.Moves, res.UnitsMoved, res.Grain)
	fmt.Printf("  result vs sequential reference: max |diff| = %g\n", worst)
	if cfg.Fault != nil {
		fmt.Printf("  fault handling: %d recoveries, %d checkpoints, evicted %v, joined %v\n",
			res.Recoveries, res.Checkpoints, res.Evicted, res.Joined)
		if res.FaultLog != nil && len(res.FaultLog.Events) > 0 {
			fmt.Print(res.FaultLog)
		}
	}

	if *showStats && res.Counters != nil {
		fmt.Println()
		fmt.Print(res.Counters.Table("engine counters"))
	}
	if *showStats && len(res.Loads) > 0 {
		// Average imbalance factor: max/mean weighted per-slave backlog,
		// averaged over the balancing rounds. 1.0 is a perfect spread.
		sum := 0.0
		for _, l := range res.Loads {
			sum += l.Max / l.Mean
		}
		fmt.Printf("  weighted imbalance: avg max/mean %.3f over %d rounds\n",
			sum/float64(len(res.Loads)), len(res.Loads))
	}

	if *showTrace && len(res.Trace) > 0 {
		raw, filt, work := res.Series(0)
		maxRate := raw.Max()
		if maxRate == 0 {
			maxRate = 1
		}
		even := float64(res.Exec.Units) / float64(slaves)
		fmt.Println()
		fmt.Print(trace.PlotASCII(72, 14,
			raw.Normalized(maxRate), filt.Normalized(maxRate), work.Normalized(even)))
	}
}
