package exp

import (
	"fmt"
	"time"

	"repro/internal/dlb"
	"repro/internal/fault"
	"repro/internal/loopir"
	"repro/internal/metrics"
)

// FaultRow is one scenario of the fault-tolerance evaluation: a fault plan
// injected into a calibrated paper workload, with the cost of surviving it.
type FaultRow struct {
	Scenario    string        `json:"scenario"`
	App         string        `json:"app"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	Eff         float64       `json:"eff"`
	Overhead    float64       `json:"overhead"` // elapsed increase over the fault-free run
	Recoveries  int           `json:"recoveries"`
	Checkpoints int           `json:"checkpoints"`
	Evicted     int           `json:"evicted"`
	Joined      int           `json:"joined"`
	MaxDiff     float64       `json:"max_diff"` // vs the sequential reference (0 = bit-exact)
}

// FaultReport is the fault-tolerance evaluation: one row per scenario.
type FaultReport struct {
	Header
	Slaves int        `json:"slaves"`
	Rows   []FaultRow `json:"rows"`
}

// faultScenario pairs a label with the fault plan it injects.
type faultScenario struct {
	name string
	plan *fault.Plan
}

// FaultTolerance evaluates the elastic runtime under injected faults on the
// calibrated workloads: MM on 8 slaves fault-free, with a crash at t=30s
// (near the end of the ~31s run, maximizing lost work without checkpoints),
// with a tolerated short stall, with an over-lease stall that leads to
// eviction, and with a node joining mid-run; plus the restricted SOR
// pipeline surviving the same crash via adjacent-only reassignment.
func FaultTolerance(s Scale) (*FaultReport, error) {
	const slaves = 8
	rep := &FaultReport{
		Header: virtual("virtual-time runs of the fault-tolerant runtime under deterministic fault plans; overhead is against each app's fault-free row"),
		Slaves: slaves,
	}

	mm, err := MMApp(s)
	if err != nil {
		return nil, err
	}
	mmScen := []faultScenario{
		{"fault-free", nil},
		{"crash @30s", (&fault.Plan{}).CrashAt(3, 30*time.Second)},
		{"stall 1s @20s (tolerated)", (&fault.Plan{}).StallAt(3, 20*time.Second, time.Second)},
		{"stall 20s @20s (evicted)", (&fault.Plan{}).StallAt(3, 20*time.Second, 20*time.Second)},
		{"join @10s", (&fault.Plan{}).JoinAt(10 * time.Second)},
	}
	if err := runFaultScenarios(mm, slaves, mmScen, &rep.Rows); err != nil {
		return nil, err
	}

	sor, err := SORApp(s)
	if err != nil {
		return nil, err
	}
	sorScen := []faultScenario{
		{"fault-free", nil},
		{"crash @30s", (&fault.Plan{}).CrashAt(3, 30*time.Second)},
	}
	if err := runFaultScenarios(sor, slaves, sorScen, &rep.Rows); err != nil {
		return nil, err
	}
	return rep, nil
}

func runFaultScenarios(app *App, slaves int, scens []faultScenario, rows *[]FaultRow) error {
	ref, err := loopir.NewInstance(app.Plan.Prog, app.Params)
	if err != nil {
		return err
	}
	if err := ref.Run(); err != nil {
		return err
	}
	var base time.Duration
	for _, sc := range scens {
		res, err := app.RunOnce(slaves, nil, func(c *dlb.Config) {
			// The fault-free row runs through the fault-tolerant runtime too
			// (empty plan), so the overhead column isolates the injected
			// fault, not the heartbeat/checkpoint machinery.
			c.Fault = sc.plan
			if c.Fault == nil {
				c.Fault = &fault.Plan{}
			}
		})
		if err != nil {
			return fmt.Errorf("%s %s: %w", app.Name, sc.name, err)
		}
		maxDiff := 0.0
		for name, want := range ref.Arrays {
			if d := want.MaxAbsDiff(res.Final[name]); d > maxDiff {
				maxDiff = d
			}
		}
		if sc.plan == nil {
			base = res.Elapsed
		}
		overhead := 0.0
		if base > 0 {
			overhead = float64(res.Elapsed-base) / float64(base)
		}
		*rows = append(*rows, FaultRow{
			Scenario:    sc.name,
			App:         app.Name,
			Elapsed:     res.Elapsed,
			Eff:         metrics.Efficiency(app.SeqTime, res.Elapsed, res.Usage),
			Overhead:    overhead,
			Recoveries:  res.Recoveries,
			Checkpoints: res.Checkpoints,
			Evicted:     len(res.Evicted),
			Joined:      len(res.Joined),
			MaxDiff:     maxDiff,
		})
	}
	return nil
}
