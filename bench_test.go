package repro

// One benchmark per table and figure of the paper's evaluation (plus the
// ablations implied by the text). Each benchmark regenerates its artifact
// at the Quick scale — the virtual-time calibration keeps simulated
// durations at paper scale regardless — and reports the headline quantity
// as a custom metric. Run the cmd/dlbbench tool for the full-scale tables.

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/loopir"
	"repro/internal/vtime"
)

// BenchmarkTable1Properties regenerates Table 1 (application properties).
func BenchmarkTable1Properties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSweep(b *testing.B, fn func(exp.Scale) (*exp.Sweep, error)) {
	var last *exp.Sweep
	for i := 0; i < b.N; i++ {
		sw, err := fn(exp.Quick)
		if err != nil {
			b.Fatal(err)
		}
		last = sw
	}
	if last != nil && len(last.Rows) > 0 {
		r := last.Rows[len(last.Rows)-1]
		b.ReportMetric(r.SpeedupDLB, "speedup@maxP")
		b.ReportMetric(r.EffDLB, "eff@maxP")
	}
}

// BenchmarkFig5MMDedicated regenerates Figure 5 (MM, dedicated homogeneous).
func BenchmarkFig5MMDedicated(b *testing.B) { benchSweep(b, exp.Fig5) }

// BenchmarkFig6SORDedicated regenerates Figure 6 (SOR, dedicated homogeneous).
func BenchmarkFig6SORDedicated(b *testing.B) { benchSweep(b, exp.Fig6) }

// BenchmarkFig7MMLoaded regenerates Figure 7 (MM, constant load on slave 0).
func BenchmarkFig7MMLoaded(b *testing.B) { benchSweep(b, exp.Fig7) }

// BenchmarkFig8SORLoaded regenerates Figure 8 (SOR, constant load on slave 0).
func BenchmarkFig8SORLoaded(b *testing.B) { benchSweep(b, exp.Fig8) }

// BenchmarkFig9Oscillating regenerates Figure 9 (work tracking under an
// oscillating load).
func BenchmarkFig9Oscillating(b *testing.B) {
	var moves int
	for i := 0; i < b.N; i++ {
		f, err := exp.Fig9(exp.Quick)
		if err != nil {
			b.Fatal(err)
		}
		moves = f.Moves
	}
	b.ReportMetric(float64(moves), "moves")
}

// BenchmarkAblationPipelining regenerates the §3.3 pipelined-vs-synchronous
// comparison.
func BenchmarkAblationPipelining(b *testing.B) {
	var rows []exp.PipeliningRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.AblationPipelining(exp.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		high := rows[len(rows)-1]
		b.ReportMetric(high.TimeSync.Seconds()/high.TimePipe.Seconds(), "sync/pipe@hilat")
	}
}

// BenchmarkAblationGrainSize regenerates the §4.4 grain-size sweep.
func BenchmarkAblationGrainSize(b *testing.B) {
	var rows []exp.GrainRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.AblationGrain(exp.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Grain == 0 {
			b.ReportMetric(float64(r.Used), "auto-grain-rows")
		}
	}
}

// BenchmarkAblationRefinements regenerates the §3.2 refinement ablation
// (filtering, 10% threshold, profitability).
func BenchmarkAblationRefinements(b *testing.B) {
	var rows []exp.RefinementRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.AblationRefinements(exp.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	var all, none int
	for _, r := range rows {
		switch r.Variant {
		case "all refinements":
			all = r.Moves
		case "none":
			none = r.Moves
		}
	}
	if all > 0 {
		b.ReportMetric(float64(none)/float64(all), "moves-none/all")
	}
}

// BenchmarkLUAdaptiveFrequency regenerates the §4.7 adaptive-frequency
// experiment.
func BenchmarkLUAdaptiveFrequency(b *testing.B) {
	var res *exp.LUResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp.AblationLUAdaptive(exp.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res != nil && len(res.Rows) > 0 {
		b.ReportMetric(float64(res.Rows[len(res.Rows)-1].SkipHooks), "final-skip")
	}
}

// BenchmarkBaselinesComparison regenerates the §6 related-work comparison
// (central task queue and diffusion vs the paper's DLB).
func BenchmarkBaselinesComparison(b *testing.B) {
	var rows []exp.BaselineRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.Baselines(exp.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Scenario == "one loaded" && r.Strategy == "DLB (this paper)" {
			b.ReportMetric(r.Eff, "dlb-eff-loaded")
		}
	}
}

// BenchmarkHeterogeneous regenerates the heterogeneous-environment
// experiment (paper conclusions).
func BenchmarkHeterogeneous(b *testing.B) {
	var rows []exp.HeteroRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.Heterogeneous(exp.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if len(r.Speeds) == 4 && r.Speeds[0] == 2 {
			b.ReportMetric(r.SpeedupDLB/r.Ideal, "dlb/ideal@2-1-1-half")
		}
	}
}

// BenchmarkFaultRecovery regenerates the fault-tolerance evaluation
// (crash/stall/join scenarios on the calibrated workloads) and reports the
// cost of surviving a crash near the end of the MM run.
func BenchmarkFaultRecovery(b *testing.B) {
	var rep *exp.FaultReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = exp.FaultTolerance(exp.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	var free, crash exp.FaultRow
	for _, r := range rep.Rows {
		if r.App == "mm" && r.Scenario == "fault-free" {
			free = r
		}
		if r.App == "mm" && r.Scenario == "crash @30s" {
			crash = r
		}
	}
	if free.Eff > 0 {
		b.ReportMetric((free.Eff-crash.Eff)/free.Eff, "eff-loss@crash")
		b.ReportMetric(float64(crash.Recoveries), "recoveries")
	}
}

// --- component micro-benchmarks ---

// BenchmarkKernelMatMul measures the compiled kernel on the MM program
// (the per-element cost every slave pays).
func BenchmarkKernelMatMul(b *testing.B) {
	in, err := loopir.NewInstance(loopir.MatMul(), map[string]int{"n": 64})
	if err != nil {
		b.Fatal(err)
	}
	k, err := in.CompileKernel(in.Prog.Body)
	if err != nil {
		b.Fatal(err)
	}
	flops := int64(3 * 64 * 64 * 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Run(nil)
	}
	b.SetBytes(flops) // bytes stand in for flops per op
}

// BenchmarkBalancerStep measures one load-balancing decision for 8 slaves.
func BenchmarkBalancerStep(b *testing.B) {
	cfg := core.DefaultConfig(8, true)
	own := core.NewBlockOwnership(2048, 8)
	bal := core.NewBalancer(cfg, own, core.NewMoveCostModel(time.Millisecond, time.Microsecond))
	statuses := make([]core.Status, 8)
	for i := range statuses {
		statuses[i] = core.Status{Rate: 100 + float64(i%3)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bal.Step(statuses, 2048)
	}
}

// BenchmarkVtimeEvents measures the discrete-event kernel's event
// throughput with two processes exchanging messages.
func BenchmarkVtimeEvents(b *testing.B) {
	k := vtime.NewKernel()
	n := b.N
	ping := k.NewMailbox("ping")
	pong := k.NewMailbox("pong")
	k.Spawn("a", func(p *vtime.Proc) {
		for i := 0; i < n; i++ {
			p.Send(ping, i, time.Microsecond)
			p.Recv(pong)
		}
	})
	k.Spawn("b", func(p *vtime.Proc) {
		for i := 0; i < n; i++ {
			p.Recv(ping)
			p.Send(pong, i, time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkClusterCompute measures the quantum-granular contention model.
func BenchmarkClusterCompute(b *testing.B) {
	k := vtime.NewKernel()
	c := cluster.New(k, cluster.Config{Slaves: 1, Load: []cluster.LoadProfile{cluster.Constant(2)}})
	n := b.N
	c.Spawn("w", 0, func(p *vtime.Proc, node *cluster.Node) {
		for i := 0; i < n; i++ {
			node.Compute(p, 30*time.Millisecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
