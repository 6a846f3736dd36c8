package exp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/dlb"
)

// The scale experiment: where is the centralized master's wall? The flat
// balancer charges the master PerReportCost for every slave every decision
// round, so its per-round coordination cost grows linearly with P. The
// hierarchical scheme caps the master's fan-in at the group count (leaders
// aggregate their members), trading a fixed leader-side charge per group.
// This driver sweeps the simulated slave count, runs the same calibrated
// workload flat and hierarchical, and reports per-round coordination cost,
// efficiency, and the crossover point where the hierarchy starts winning.

// scaleReportCost is the pinned per-report processing charge. Both modes
// run with the same value so the sweep isolates the topology, not the
// constant.
const scaleReportCost = 200 * time.Microsecond

// scaleNote is BENCH_scale.json's header note. It describes the checked-in
// file, and the driver emits the same words so a regeneration on a host
// that can hold the sweep stays byte-comparable.
const scaleNote = "virtual-time makespans, flat master vs two-level hierarchy at one per-report cost; " +
	"the full sweep holds ≈8 GB (512 simulated slaves × two 1024² arrays), so tier-1 parses this file " +
	"but does not regenerate it: the rows are the capture that introduced hier, this header was added by hand (PR 17)"

// paperJacobiSeq calibrates the jacobi workload's sequential virtual time;
// the paper does not report one, so it is chosen in-range with the others.
const paperJacobiSeq = 300 * time.Second

// ScaleRow is one slave count of the sweep: the same run flat and
// hierarchical.
type ScaleRow struct {
	P      int `json:"p"`
	Groups int `json:"groups"`

	FlatTime time.Duration `json:"flat_ns"`
	HierTime time.Duration `json:"hier_ns"`
	FlatEff  float64       `json:"flat_eff"`
	HierEff  float64       `json:"hier_eff"`

	// Measured master busy time divided by decision rounds.
	FlatMasterRound time.Duration `json:"flat_master_round_ns"`
	HierMasterRound time.Duration `json:"hier_master_round_ns"`
	// Modeled leader aggregation charge per round (PerReportCost x group
	// size) — the cost the hierarchy shifts off the master.
	LeaderRound time.Duration `json:"leader_round_ns"`

	FlatRounds     int64 `json:"flat_rounds"`
	HierRounds     int64 `json:"hier_rounds"`
	FlatMasterMsgs int   `json:"flat_master_msgs"`
	HierMasterMsgs int   `json:"hier_master_msgs"`
	Exchanges      int64 `json:"exchanges"`
	CrossUnits     int64 `json:"cross_units"`
}

// ScaleReport is the experiment's result.
type ScaleReport struct {
	Header
	Workload  string     `json:"workload"`
	GroupSize int        `json:"group_size"`
	Rows      []ScaleRow `json:"rows"`
	// Crossover is the smallest P where the hierarchical run beat the flat
	// run on elapsed time (0: never within the sweep).
	Crossover int `json:"crossover_p"`
}

// scaleLoad builds the sweep's imbalance: every fourth machine carries one
// competing process, every eighth carries two. The pattern repeats, so the
// imbalance shape is the same at every P and both topologies see identical
// clusters.
func scaleLoad(p int) []cluster.LoadProfile {
	load := make([]cluster.LoadProfile, p)
	for i := range load {
		switch {
		case i%8 == 3:
			load[i] = cluster.Constant(2)
		case i%4 == 1:
			load[i] = cluster.Constant(1)
		}
	}
	return load
}

// ScaleSweep runs the wall-finder: jacobi on 16..512 simulated slaves
// (quick: 8..64), flat versus hierarchical with a fixed group size.
func ScaleSweep(s Scale) (*ScaleReport, error) {
	ps := []int{16, 32, 64, 128, 256, 512}
	n, maxiter, groupSize := 1024, 8, 16
	if s.MM <= Quick.MM { // reduced scale for tests and CI smoke
		ps = []int{8, 16, 32, 64}
		n, maxiter, groupSize = 192, 4, 4
	}
	app, err := NewApp("jacobi", map[string]int{"n": n, "maxiter": maxiter}, paperJacobiSeq)
	if err != nil {
		return nil, err
	}
	rep := &ScaleReport{
		Header:    virtual(scaleNote),
		Workload:  fmt.Sprintf("jacobi n=%d maxiter=%d", n, maxiter),
		GroupSize: groupSize,
	}
	for _, p := range ps {
		groups := p / groupSize
		if groups < 2 {
			groups = 2
		}
		load := scaleLoad(p)
		flat, err := app.RunOnce(p, load, func(cfg *dlb.Config) {
			cfg.PerReportCost = scaleReportCost
		})
		if err != nil {
			return nil, fmt.Errorf("scale: flat P=%d: %w", p, err)
		}
		hier, err := app.RunOnce(p, load, func(cfg *dlb.Config) {
			cfg.PerReportCost = scaleReportCost
			cfg.Groups = groups
		})
		if err != nil {
			return nil, fmt.Errorf("scale: hier P=%d G=%d: %w", p, groups, err)
		}
		row := ScaleRow{
			P:              p,
			Groups:         groups,
			FlatTime:       flat.Elapsed,
			HierTime:       hier.Elapsed,
			FlatEff:        efficiency(app.SeqTime, flat.Elapsed, p),
			HierEff:        efficiency(app.SeqTime, hier.Elapsed, p),
			LeaderRound:    time.Duration(p/groups) * scaleReportCost,
			FlatRounds:     flat.Counters.Get("rounds"),
			HierRounds:     hier.Counters.Get("rounds"),
			FlatMasterMsgs: flat.MasterUsage.MessagesSent,
			HierMasterMsgs: hier.MasterUsage.MessagesSent,
			Exchanges:      hier.Counters.Get("hier_exchanges"),
			CrossUnits:     hier.Counters.Get("hier_cross_units"),
		}
		if row.FlatRounds > 0 {
			row.FlatMasterRound = flat.MasterUsage.BusyElapsed / time.Duration(row.FlatRounds)
		}
		if row.HierRounds > 0 {
			row.HierMasterRound = hier.MasterUsage.BusyElapsed / time.Duration(row.HierRounds)
		}
		rep.Rows = append(rep.Rows, row)
		if rep.Crossover == 0 && row.HierTime < row.FlatTime {
			rep.Crossover = p
		}
	}
	return rep, nil
}

func efficiency(seq, par time.Duration, p int) float64 {
	if par <= 0 {
		return 0
	}
	return float64(seq) / (float64(p) * float64(par))
}

// RenderScale formats the report as the experiment's text artifact.
func RenderScale(rep *ScaleReport) string {
	var sb strings.Builder
	sb.WriteString("Scale wall-finder: flat centralized master vs two-level hierarchy\n")
	fmt.Fprintf(&sb, "workload %s, group size %d, per-report cost %v (both modes)\n\n",
		rep.Workload, rep.GroupSize, scaleReportCost)
	fmt.Fprintf(&sb, "%5s %4s %12s %12s %7s %7s %12s %12s %12s %7s %7s\n",
		"P", "G", "t(flat)", "t(hier)", "e(flat)", "e(hier)",
		"mstr/rd flat", "mstr/rd hier", "ldr/rd", "xchg", "xunits")
	for _, r := range rep.Rows {
		fmt.Fprintf(&sb, "%5d %4d %12s %12s %7.3f %7.3f %12s %12s %12s %7d %7d\n",
			r.P, r.Groups,
			r.FlatTime.Round(time.Millisecond), r.HierTime.Round(time.Millisecond),
			r.FlatEff, r.HierEff,
			r.FlatMasterRound.Round(time.Microsecond), r.HierMasterRound.Round(time.Microsecond),
			r.LeaderRound, r.Exchanges, r.CrossUnits)
	}
	sb.WriteString("\n")
	if rep.Crossover > 0 {
		fmt.Fprintf(&sb, "crossover: hierarchy first beats the flat master at P=%d\n", rep.Crossover)
	} else {
		sb.WriteString("crossover: not reached within the sweep (flat master still ahead)\n")
	}
	sb.WriteString("(mstr/rd: measured master busy time per decision round; ldr/rd: modeled\n")
	sb.WriteString(" leader aggregation charge per round = per-report cost x group size)\n")
	return sb.String()
}
