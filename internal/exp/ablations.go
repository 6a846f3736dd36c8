package exp

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/dlb"
	"repro/internal/metrics"
)

// PipeliningRow compares pipelined vs. synchronous master interactions at
// one network latency.
type PipeliningRow struct {
	Latency   time.Duration `json:"latency_ns"`
	TimePipe  time.Duration `json:"pipelined_ns"`
	TimeSync  time.Duration `json:"synchronous_ns"`
	EffPipe   float64       `json:"eff_pipelined"`
	EffSync   float64       `json:"eff_synchronous"`
	PhasesNum int           `json:"phases"`
}

// AblationPipelining reproduces the §3.3 claim that pipelining master-slave
// interactions matters: MM on 4 slaves with one loaded processor, at the
// base Nectar-like latency and at a high (congested/WAN-like) latency where
// synchronous round trips sit in the critical path.
func AblationPipelining(s Scale) ([]PipeliningRow, error) {
	app, err := MMApp(s)
	if err != nil {
		return nil, err
	}
	const slaves = 4
	var rows []PipeliningRow
	for _, lat := range []time.Duration{500 * time.Microsecond, 50 * time.Millisecond} {
		cc := cluster.Config{
			Slaves:      slaves,
			Load:        []cluster.LoadProfile{cluster.Constant(1)},
			LinkLatency: lat,
		}
		runMode := func(sync bool) (*dlb.Result, error) {
			cfg := dlb.Config{
				Plan:        app.Plan,
				Params:      app.Params,
				DLB:         true,
				Synchronous: sync,
				FlopCost:    app.FlopCost,
			}
			return dlb.Run(cfg, cc)
		}
		pipe, err := runMode(false)
		if err != nil {
			return nil, err
		}
		sync, err := runMode(true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PipeliningRow{
			Latency:   lat,
			TimePipe:  pipe.Elapsed,
			TimeSync:  sync.Elapsed,
			EffPipe:   metrics.Efficiency(app.SeqTime, pipe.Elapsed, pipe.Usage),
			EffSync:   metrics.Efficiency(app.SeqTime, sync.Elapsed, sync.Usage),
			PhasesNum: pipe.Phases,
		})
	}
	return rows, nil
}

// GrainRow is one strip-mining block size.
type GrainRow struct {
	Grain   int           `json:"forced"` // 0 = automatic (1.5 x quantum rule)
	Used    int           `json:"used"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Eff     float64       `json:"eff"`
}

// AblationGrain reproduces §4.4: SOR with one loaded slave at forced strip
// grains around the automatic choice. Tiny grains synchronize every few
// iterations (Figure 3b) and suffer under competing load; huge grains pay
// pipeline fill/drain. The grid is sized so that one pipelined row costs
// well under a quantum (as on the paper's testbed), making the automatic
// grain larger than 1; Scale only raises the floor.
func AblationGrain(s Scale) ([]GrainRow, error) {
	// The paper's regime: one pipelined row costs a few milliseconds (well
	// under the 100 ms quantum), so per-row communication overhead is a
	// large fraction of fine-grain execution. 256x256 with 128 sweeps puts
	// the calibrated row cost near 3 ms, like the 2000-column rows on the
	// Sun 4/330s.
	n := s.SOR
	if n < 256 {
		n = 256
	}
	iters := 128
	app, err := NewApp("sor", map[string]int{"n": n, "maxiter": iters}, paperSORSeq)
	if err != nil {
		return nil, err
	}
	const slaves = 4
	cc := cluster.Config{Slaves: slaves, Load: []cluster.LoadProfile{cluster.Constant(1)}}
	grains := []int{1, 2, 8, 0 /* auto */, n} // n forces one block per sweep
	var rows []GrainRow
	for _, g := range grains {
		cfg := dlb.Config{
			Plan:        app.Plan,
			Params:      app.Params,
			DLB:         true,
			FlopCost:    app.FlopCost,
			ForcedGrain: g,
		}
		res, err := dlb.Run(cfg, cc)
		if err != nil {
			return nil, err
		}
		rows = append(rows, GrainRow{
			Grain:   g,
			Used:    res.Grain,
			Elapsed: res.Elapsed,
			Eff:     metrics.Efficiency(app.SeqTime, res.Elapsed, res.Usage),
		})
	}
	return rows, nil
}

// RefinementRow is one balancer variant under the oscillating load.
type RefinementRow struct {
	Variant    string        `json:"variant"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	Eff        float64       `json:"eff"`
	Moves      int           `json:"moves"`
	UnitsMoved int           `json:"units_moved"`
}

// AblationRefinements reproduces the §3.2 refinements: rate filtering, the
// 10% improvement threshold, and the profitability determination, each
// disabled in turn under the Figure 9 oscillating load. The refinements
// exist to prevent excessive work movement.
func AblationRefinements(s Scale) ([]RefinementRow, error) {
	app, err := MMApp(s)
	if err != nil {
		return nil, err
	}
	const slaves = 4
	cc := cluster.Config{
		Slaves: slaves,
		Load: []cluster.LoadProfile{cluster.SquareWave{
			Period: 20 * time.Second, OnDuration: 10 * time.Second, Tasks: 1,
		}},
	}
	variants := []struct {
		name string
		mod  func(*dlb.Config)
	}{
		{"all refinements", func(*dlb.Config) {}},
		{"no filtering", func(c *dlb.Config) { c.DisableFilter = true }},
		{"no 10% threshold", func(c *dlb.Config) { c.MinImprovement = -1 }},
		{"no profitability", func(c *dlb.Config) { c.DisableProfitability = true }},
		{"none", func(c *dlb.Config) {
			c.DisableFilter = true
			c.MinImprovement = -1
			c.DisableProfitability = true
		}},
	}
	var rows []RefinementRow
	for _, v := range variants {
		cfg := dlb.Config{Plan: app.Plan, Params: app.Params, DLB: true, FlopCost: app.FlopCost}
		v.mod(&cfg)
		res, err := dlb.Run(cfg, cc)
		if err != nil {
			return nil, err
		}
		rows = append(rows, RefinementRow{
			Variant:    v.name,
			Elapsed:    res.Elapsed,
			Eff:        metrics.Efficiency(app.SeqTime, res.Elapsed, res.Usage),
			Moves:      res.Moves,
			UnitsMoved: res.UnitsMoved,
		})
	}
	return rows, nil
}

// LUAdaptiveRow is one load-balancing phase of the LU run.
type LUAdaptiveRow struct {
	Time      time.Duration `json:"t_ns"`
	Phase     int           `json:"phase"`
	SkipHooks int           `json:"skip_hooks"`
	Period    time.Duration `json:"period_ns"`
	WorkLeft  int           `json:"active_units"`
}

// LUResult is the §4.7 experiment output.
type LUResult struct {
	Rows    []LUAdaptiveRow `json:"rows"`
	Elapsed time.Duration   `json:"elapsed_ns"`
	Eff     float64         `json:"eff"`
}

// AblationLUAdaptive reproduces §4.7: as LU's per-invocation work shrinks,
// the ratio of balancing cost to work grows, and the automatic frequency
// selection compensates by skipping more hooks between interactions.
func AblationLUAdaptive(s Scale) (*LUResult, error) {
	app, err := LUApp(s)
	if err != nil {
		return nil, err
	}
	const slaves = 4
	cc := cluster.Config{Slaves: slaves, Load: []cluster.LoadProfile{cluster.Constant(1)}}
	cfg := dlb.Config{Plan: app.Plan, Params: app.Params, DLB: true, FlopCost: app.FlopCost}
	res, err := dlb.Run(cfg, cc)
	if err != nil {
		return nil, err
	}
	out := &LUResult{
		Elapsed: res.Elapsed,
		Eff:     metrics.Efficiency(app.SeqTime, res.Elapsed, res.Usage),
	}
	for _, smp := range res.Trace {
		if smp.Slave != 0 {
			continue
		}
		work := 0
		for _, s2 := range res.Trace {
			if s2.Phase == smp.Phase {
				work += s2.Work
			}
		}
		out.Rows = append(out.Rows, LUAdaptiveRow{
			Time:      smp.Time,
			Phase:     smp.Phase,
			SkipHooks: smp.SkipHooks,
			Period:    smp.Period,
			WorkLeft:  work,
		})
	}
	return out, nil
}
