package main

import (
	"time"

	"repro/internal/dlb"
)

// observeResult reads the per-layer numbers one finished run reports about
// itself. wall is the time around the call that produced res; for a
// simulated run (wall == 0) res.Elapsed is virtual time and the wall-clock
// rows are left out, while the shares, which are ratios within one clock,
// stay.
func observeResult(o obs, res *dlb.Result, wall time.Duration) {
	el := res.Elapsed.Seconds()
	if wall > 0 {
		o.add("dlb.elapsed_s", el)
		o.add("dlb.scatter_gather_s", (res.Elapsed - res.ComputeElapsed).Seconds())
		o.add("dlb.harness_gap_s", (wall - res.Elapsed).Seconds())
	}
	if el > 0 {
		o.add("dlb.compute_share", res.ComputeElapsed.Seconds()/el)
	}
	// Transport runs do not carry slave accounting back to the master.
	if len(res.Usage) > 0 && el > 0 {
		sum, max := 0.0, 0.0
		for _, u := range res.Usage {
			b := u.BusyElapsed.Seconds()
			sum += b
			if b > max {
				max = b
			}
		}
		o.add("dlb.busy_share", sum/(float64(len(res.Usage))*el))
		if sum > 0 {
			o.add("dlb.busy_skew", max/(sum/float64(len(res.Usage))))
		}
	}
	o.add("dlb.grain", float64(res.Grain))
	if len(res.Loads) > 0 {
		imb := 0.0
		for _, l := range res.Loads {
			if l.Mean > 0 {
				imb += l.Max / l.Mean
			}
		}
		o.add("core.imbalance", imb/float64(len(res.Loads)))
	}
	observeCounters(o, res.Counters)
}

// observeCounters maps the engine's event counters, which every endpoint
// and the service's result JSON report under the same names, onto the
// per-layer metrics.
func observeCounters(o obs, c map[string]int64) {
	for counter, metric := range map[string]string{
		"rounds":           "dlb.rounds",
		"status_reports":   "dlb.status_reports",
		"instr_bytes":      "dlb.instr_bytes",
		"scatter_bytes":    "dlb.scatter_bytes",
		"overlap_rounds":   "dlb.overlap_rounds",
		"overlap_fallback": "dlb.overlap_fallback",
		"kernel_units":     "dlb.kernel_units",
		"aot_units":        "dlb.aot_units",
		"fallback_units":   "dlb.fallback_units",
		"moves":            "core.moves",
		"units_moved":      "core.units_moved",
	} {
		o.add(metric, float64(c[counter]))
	}
}

// observeFault adds the fault policy's counters; only transport runs are
// fault-tolerant.
func observeFault(o obs, c map[string]int64) {
	o.add("fault.checkpoints_per_run", float64(c["checkpoints"]))
	o.add("fault.recoveries", float64(c["recoveries"]))
}
