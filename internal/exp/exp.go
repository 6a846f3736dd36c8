// Package exp contains one driver per paper experiment: Table 1, Figures
// 5-9, and the ablations implied by the text (pipelined vs. synchronous
// interactions §3.3, grain-size selection §4.4, balancer refinements §3.2,
// adaptive frequency for LU §4.7). Each driver builds the workload, runs
// the compiled program on a simulated cluster, and renders the same rows or
// series the paper reports.
//
// Virtual times are calibrated so the sequential baselines land on the
// paper's figures (500x500 MM ≈ 250 s, 2000x2000 SOR ≈ 350 s on a Sun
// 4/330) regardless of the real problem size executed, so the shape of
// every curve is comparable to the paper at any Scale.
//
// Contract: everything here is deterministic model output. Every timed run
// goes through the simulator (a cluster.Config under dlb.Run or a baseline
// scheduler), so a result is virtual time, identical to the nanosecond on
// any host, and the checked-in BENCH_*.json files regenerate byte for byte
// (TestCheckedInArtifacts). The package never reads a wall clock, the CPU
// count or a socket; wall time is measured in the benchmark/ module and
// nowhere else. Experiments (registry.go) is the one list of what can be
// regenerated.
package exp

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/dlb"
	"repro/internal/loopir"
	"repro/internal/metrics"
)

// Scale selects the real problem sizes. Virtual-time calibration keeps the
// simulated durations at paper scale for any value, so Quick is suitable
// for tests and Full is what cmd/dlbbench regenerates the artifacts at.
type Scale struct {
	MM      int // matrix order for MM
	SOR     int // grid order for SOR
	SORIter int // SOR sweeps
	LU      int // matrix order for LU
	MaxP    int // largest slave count in sweeps
}

// Full is the scale of EXPERIMENTS.md and the checked-in BENCH_*.json.
var Full = Scale{MM: 192, SOR: 256, SORIter: 12, LU: 160, MaxP: 8}

// Quick is a reduced scale for unit tests.
var Quick = Scale{MM: 48, SOR: 64, SORIter: 6, LU: 48, MaxP: 4}

// Paper-reported sequential baselines used for calibration.
const (
	paperMMSeq  = 250 * time.Second // Figure 5a, 500x500 MM
	paperSORSeq = 350 * time.Second // Figure 6a, 2000x2000 SOR
	paperLUSeq  = 200 * time.Second // not shown in the paper; chosen in-range
)

// App bundles a compiled program with its parameters and calibration.
type App struct {
	Name     string
	Plan     *compile.Plan
	Params   map[string]int
	FlopCost time.Duration
	SeqTime  time.Duration
}

// NewApp compiles a library program and calibrates its virtual flop cost so
// the sequential run takes paperSeq of virtual time.
func NewApp(name string, params map[string]int, paperSeq time.Duration) (*App, error) {
	prog := loopir.Library()[name]
	if prog == nil {
		return nil, fmt.Errorf("exp: unknown program %q", name)
	}
	plan, err := compile.Compile(prog, compile.Options{Dist: compile.LibraryDist(name)})
	if err != nil {
		return nil, err
	}
	flops := loopir.EstFlops(prog.Body, params)
	if flops <= 0 {
		return nil, fmt.Errorf("exp: program %q has no work", name)
	}
	return &App{
		Name:     name,
		Plan:     plan,
		Params:   params,
		FlopCost: time.Duration(float64(paperSeq) / flops),
		SeqTime:  paperSeq,
	}, nil
}

// MMApp builds the calibrated matrix-multiplication application.
func MMApp(s Scale) (*App, error) {
	return NewApp("mm", map[string]int{"n": s.MM}, paperMMSeq)
}

// SORApp builds the calibrated successive-overrelaxation application.
func SORApp(s Scale) (*App, error) {
	return NewApp("sor", map[string]int{"n": s.SOR, "maxiter": s.SORIter}, paperSORSeq)
}

// LUApp builds the calibrated LU-decomposition application.
func LUApp(s Scale) (*App, error) {
	return NewApp("lu", map[string]int{"n": s.LU}, paperLUSeq)
}

// RunOnce executes the app on a cluster with the given slave count, load
// profiles, and config tweaks.
func (a *App) RunOnce(slaves int, load []cluster.LoadProfile, mod func(*dlb.Config)) (*dlb.Result, error) {
	cfg := dlb.Config{
		Plan:     a.Plan,
		Params:   a.Params,
		DLB:      true,
		FlopCost: a.FlopCost,
	}
	if mod != nil {
		mod(&cfg)
	}
	return dlb.Run(cfg, cluster.Config{Slaves: slaves, Load: load})
}

// SweepRow is one processor count of a Figure 5-8 style sweep.
type SweepRow struct {
	P          int
	TimePar    time.Duration // static distribution (no DLB)
	TimeDLB    time.Duration
	SpeedupPar float64
	SpeedupDLB float64
	EffPar     float64
	EffDLB     float64
}

// Sweep is a full Figure 5-8 result.
type Sweep struct {
	Name    string
	Caption string
	Seq     time.Duration
	Rows    []SweepRow
}

// RunSweep executes the app at P = 1..maxP with and without DLB under the
// given per-P load profile factory.
func (a *App) RunSweep(name, caption string, maxP int, loadFor func(p int) []cluster.LoadProfile) (*Sweep, error) {
	sw := &Sweep{Name: name, Caption: caption, Seq: a.SeqTime}
	for p := 1; p <= maxP; p++ {
		var load []cluster.LoadProfile
		if loadFor != nil {
			load = loadFor(p)
		}
		par, err := a.RunOnce(p, load, func(c *dlb.Config) { c.DLB = false })
		if err != nil {
			return nil, fmt.Errorf("%s P=%d static: %w", name, p, err)
		}
		dyn, err := a.RunOnce(p, load, nil)
		if err != nil {
			return nil, fmt.Errorf("%s P=%d dlb: %w", name, p, err)
		}
		sw.Rows = append(sw.Rows, SweepRow{
			P:          p,
			TimePar:    par.Elapsed,
			TimeDLB:    dyn.Elapsed,
			SpeedupPar: metrics.Speedup(a.SeqTime, par.Elapsed),
			SpeedupDLB: metrics.Speedup(a.SeqTime, dyn.Elapsed),
			EffPar:     metrics.Efficiency(a.SeqTime, par.Elapsed, par.Usage),
			EffDLB:     metrics.Efficiency(a.SeqTime, dyn.Elapsed, dyn.Usage),
		})
	}
	return sw, nil
}

// Render formats the sweep as the paper's three panels (time, speedup,
// efficiency) in one table.
func (s *Sweep) Render() string {
	t := &metrics.Table{
		Title:   fmt.Sprintf("%s — %s (sequential: %.0fs)", s.Name, s.Caption, s.Seq.Seconds()),
		Headers: []string{"P", "t_par", "t_dlb", "speedup_par", "speedup_dlb", "eff_par", "eff_dlb"},
	}
	for _, r := range s.Rows {
		t.AddRowf(r.P, r.TimePar, r.TimeDLB, r.SpeedupPar, r.SpeedupDLB, r.EffPar, r.EffDLB)
	}
	return t.String()
}
