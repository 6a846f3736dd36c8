package exp

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/dlb"
	"repro/internal/metrics"
)

// HeteroRow is one configuration of the heterogeneous-environment
// experiment.
type HeteroRow struct {
	Speeds     []float64     `json:"speeds"`
	TimePar    time.Duration `json:"static_ns"`
	TimeDLB    time.Duration `json:"dlb_ns"`
	SpeedupPar float64       `json:"speedup_static"`
	SpeedupDLB float64       `json:"speedup_dlb"`
	// Ideal is the best possible speedup: the sum of relative speeds.
	Ideal float64 `json:"ideal"`
}

// Heterogeneous measures the claim from the paper's conclusions that "the
// load balancer can rapidly adjust the work distribution in a heterogeneous
// environment": MM on mixed-speed workstations, static vs. DLB. The
// balancer needs no per-machine weights — measured work units per second
// capture heterogeneity directly (§3.2).
func Heterogeneous(s Scale) ([]HeteroRow, error) {
	app, err := MMApp(s)
	if err != nil {
		return nil, err
	}
	configs := [][]float64{
		{1, 1, 1, 1},       // homogeneous control
		{2, 1, 1, 0.5},     // mixed lab
		{4, 1, 1, 1},       // one fast server
		{1, 1, 0.25, 0.25}, // two old desktops
	}
	var rows []HeteroRow
	for _, speeds := range configs {
		cc := cluster.Config{Slaves: len(speeds), Speed: speeds}
		static, err := dlb.Run(dlb.Config{
			Plan: app.Plan, Params: app.Params, DLB: false, FlopCost: app.FlopCost,
		}, cc)
		if err != nil {
			return nil, err
		}
		dyn, err := dlb.Run(dlb.Config{
			Plan: app.Plan, Params: app.Params, DLB: true, FlopCost: app.FlopCost,
		}, cc)
		if err != nil {
			return nil, err
		}
		ideal := 0.0
		for _, sp := range speeds {
			ideal += sp
		}
		rows = append(rows, HeteroRow{
			Speeds:     speeds,
			TimePar:    static.Elapsed,
			TimeDLB:    dyn.Elapsed,
			SpeedupPar: metrics.Speedup(app.SeqTime, static.Elapsed),
			SpeedupDLB: metrics.Speedup(app.SeqTime, dyn.Elapsed),
			Ideal:      ideal,
		})
	}
	return rows, nil
}
