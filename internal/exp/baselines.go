package exp

import (
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/dlb"
	"repro/internal/metrics"
)

// BaselineRow compares one load-distribution strategy in one environment.
type BaselineRow struct {
	Strategy string        `json:"strategy"`
	Scenario string        `json:"scenario"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	Eff      float64       `json:"eff"`
	// MBMoved is the mid-run application data shipped because of
	// scheduling decisions (excluding the initial scatter and final
	// gather, which every strategy pays): per unit, DLB ships its B and C
	// columns between slaves; the central queue ships B+C to the slave and
	// C back through the master; diffusion ships the B column to the
	// neighbor.
	MBMoved float64 `json:"mb_moved"`
	Assigns int     `json:"decisions"`
}

// Baselines quantifies the related-work comparison (§6) on the MM workload:
// the paper's DLB (data stays resident, work moves only on imbalance)
// versus a central task queue (self-scheduling: all data flows through the
// master) and nearest-neighbor diffusion (local information only), in a
// dedicated environment and with a constant competing load on one slave.
func Baselines(s Scale) ([]BaselineRow, error) {
	app, err := MMApp(s)
	if err != nil {
		return nil, err
	}
	m, err := baseline.NewMM(s.MM)
	if err != nil {
		return nil, err
	}
	const slaves = 8
	scenarios := []struct {
		name string
		load []cluster.LoadProfile
	}{
		{"dedicated", nil},
		{"one loaded", []cluster.LoadProfile{cluster.Constant(1)}},
	}
	var rows []BaselineRow
	for _, sc := range scenarios {
		cc := cluster.Config{Slaves: slaves, Load: sc.load}

		// Paper's system: static and DLB.
		unitBytes := 8.0 * float64(s.MM)
		static, err := app.RunOnce(slaves, sc.load, func(c *dlb.Config) { c.DLB = false })
		if err != nil {
			return nil, err
		}
		rows = append(rows, BaselineRow{
			Strategy: "static block",
			Scenario: sc.name,
			Elapsed:  static.Elapsed,
			Eff:      metrics.Efficiency(app.SeqTime, static.Elapsed, static.Usage),
		})
		dyn, err := app.RunOnce(slaves, sc.load, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BaselineRow{
			Strategy: "DLB (this paper)",
			Scenario: sc.name,
			Elapsed:  dyn.Elapsed,
			Eff:      metrics.Efficiency(app.SeqTime, dyn.Elapsed, dyn.Usage),
			MBMoved:  float64(dyn.UnitsMoved) * 2 * unitBytes / 1e6,
			Assigns:  dyn.Moves,
		})

		// Central task queue.
		for _, pol := range []baseline.ChunkPolicy{baseline.FixedChunk(4), baseline.GSS{}} {
			res, err := baseline.RunSelfSched(m, cc, pol, app.FlopCost)
			if err != nil {
				return nil, err
			}
			if err := m.Verify(res); err != nil {
				return nil, err
			}
			rows = append(rows, BaselineRow{
				Strategy: "self-sched " + pol.Name(),
				Scenario: sc.name,
				Elapsed:  res.Elapsed,
				Eff:      metrics.Efficiency(app.SeqTime, res.Elapsed, res.Usage),
				MBMoved:  float64(res.UnitsMoved) * 3 * unitBytes / 1e6,
				Assigns:  res.Assigns,
			})
		}

		// Nearest-neighbor diffusion.
		res, err := baseline.RunDiffusion(m, cc, baseline.DiffusionConfig{FlopCost: app.FlopCost})
		if err != nil {
			return nil, err
		}
		if err := m.Verify(res); err != nil {
			return nil, err
		}
		rows = append(rows, BaselineRow{
			Strategy: "diffusion",
			Scenario: sc.name,
			Elapsed:  res.Elapsed,
			Eff:      metrics.Efficiency(app.SeqTime, res.Elapsed, res.Usage),
			MBMoved:  float64(res.UnitsMoved) * unitBytes / 1e6,
			Assigns:  res.Assigns,
		})
	}
	return rows, nil
}
