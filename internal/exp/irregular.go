package exp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/dlb"
	"repro/internal/loopir"
	"repro/internal/metrics"
)

// The irregular-workload experiment: what the learned per-unit cost model
// buys over the paper's uniform-unit assumption. The evaluated programs
// (the paper has no sparse workloads; these extend it) read their trip
// counts through index arrays, so per-unit cost varies by one to two
// orders of magnitude in block-correlated patterns:
//
//   - spmv: banded ELL sparse matrix-vector product; row cost follows a
//     power-law rowlen drawn per 32-row block.
//   - pbin: particle binning with quadratic per-bin interaction cost.
//
// Under the uniform model the balancer's measured unit rates conflate
// machine speed with unit cost — a slave holding cheap units looks fast
// and gets handed the expensive ones (the rate inversion the cost-model
// layer exists to fix). Each program runs uniform and learned on the same
// cluster; the table reports makespan, speedup, efficiency and the
// weighted load imbalance (max/mean per-slave weighted backlog, averaged
// over balancing rounds).

// IrregularRow is one (program, cost model) measurement.
type IrregularRow struct {
	Prog       string  `json:"prog"`
	CostModel  string  `json:"cost_model"`
	ElapsedS   float64 `json:"elapsed_s"`
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
	Imbalance  float64 `json:"imbalance"`
	Moves      int     `json:"moves"`
	UnitsMoved int     `json:"units_moved"`
}

// IrregularReport is the experiment result: all rows plus the learned
// model's makespan gain per program (uniform elapsed over learned
// elapsed; >1 means learned wins).
type IrregularReport struct {
	Header
	Slaves int                `json:"slaves"`
	Seq    map[string]float64 `json:"sequential_s"`
	Rows   []IrregularRow     `json:"rows"`
	Gains  map[string]float64 `json:"makespan_gain"`
}

// irregularCase is one workload configuration.
type irregularCase struct {
	name   string
	params map[string]int
}

// irregularCases picks problem sizes: full scale exercises the same
// configurations the checked-in BENCH_irregular.json records; quick scale
// shrinks them for tests while keeping the skew strong enough that the
// learned model's win is robust.
func irregularCases(s Scale) ([]irregularCase, int) {
	if s.MM <= Quick.MM {
		return []irregularCase{
			{"spmv", map[string]int{"n": 1024, "maxiter": 4}},
			{"pbin", map[string]int{"n": 256, "maxiter": 4}},
		}, 8
	}
	return []irregularCase{
		{"spmv", map[string]int{"n": 2048, "maxiter": 8}},
		{"pbin", map[string]int{"n": 512, "maxiter": 4}},
	}, 8
}

// Irregular runs each irregular program under the uniform and the learned
// cost model on the same simulated cluster and collects the comparison.
func Irregular(s Scale) (*IrregularReport, error) {
	cases, slaves := irregularCases(s)
	rep := &IrregularReport{
		Header: virtual("makespans under the uniform and the learned per-unit cost model on one simulated cluster, 1µs per flop"),
		Slaves: slaves,
		Seq:    map[string]float64{},
		Gains:  map[string]float64{},
	}
	const flopCost = time.Microsecond // the Sun 4/330 calibration
	for _, c := range cases {
		prog := loopir.Library()[c.name]
		if prog == nil {
			return nil, fmt.Errorf("exp: unknown program %q", c.name)
		}
		plan, err := compile.Compile(prog, compile.Options{})
		if err != nil {
			return nil, fmt.Errorf("exp: compile %s: %w", c.name, err)
		}
		seq, _, err := dlb.SequentialTime(plan, c.params, flopCost)
		if err != nil {
			return nil, fmt.Errorf("exp: sequential %s: %w", c.name, err)
		}
		rep.Seq[c.name] = seq.Seconds()
		elapsed := map[string]float64{}
		for _, mode := range []string{dlb.CostUniform, dlb.CostLearned} {
			res, err := dlb.Run(dlb.Config{
				Plan:      plan,
				Params:    c.params,
				DLB:       true,
				FlopCost:  flopCost,
				CostModel: mode,
			}, cluster.Config{Slaves: slaves})
			if err != nil {
				return nil, fmt.Errorf("exp: %s %s: %w", c.name, mode, err)
			}
			imb := 0.0
			for _, l := range res.Loads {
				imb += l.Max / l.Mean
			}
			if n := len(res.Loads); n > 0 {
				imb /= float64(n)
			}
			elapsed[mode] = res.Elapsed.Seconds()
			rep.Rows = append(rep.Rows, IrregularRow{
				Prog:       c.name,
				CostModel:  mode,
				ElapsedS:   res.Elapsed.Seconds(),
				Speedup:    metrics.Speedup(seq, res.Elapsed),
				Efficiency: metrics.Efficiency(seq, res.Elapsed, res.Usage),
				Imbalance:  imb,
				Moves:      res.Moves,
				UnitsMoved: res.UnitsMoved,
			})
		}
		if elapsed[dlb.CostLearned] > 0 {
			rep.Gains[c.name] = elapsed[dlb.CostUniform] / elapsed[dlb.CostLearned]
		}
	}
	return rep, nil
}

// RenderIrregular formats the report as the experiment's text artifact.
func RenderIrregular(rep *IrregularReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Irregular workloads on %d slaves: uniform vs learned per-unit cost model\n", rep.Slaves)
	sb.WriteString("(imbalance = avg max/mean weighted backlog per round; gain = uniform/learned makespan)\n\n")
	fmt.Fprintf(&sb, "%-6s %-8s %10s %9s %7s %6s %10s %7s %7s\n",
		"prog", "model", "seq", "elapsed", "speedup", "eff", "imbalance", "moves", "units")
	prev := ""
	for _, r := range rep.Rows {
		if prev != "" && r.Prog != prev {
			sb.WriteString("\n")
		}
		prev = r.Prog
		fmt.Fprintf(&sb, "%-6s %-8s %9.2fs %8.2fs %7.2f %6.3f %10.3f %7d %7d\n",
			r.Prog, r.CostModel, rep.Seq[r.Prog], r.ElapsedS, r.Speedup, r.Efficiency,
			r.Imbalance, r.Moves, r.UnitsMoved)
	}
	sb.WriteString("\nmakespan gains (uniform/learned):\n")
	for _, r := range rep.Rows {
		if r.CostModel != "learned" {
			continue
		}
		fmt.Fprintf(&sb, "  %-6s %.2fx\n", r.Prog, rep.Gains[r.Prog])
	}
	return sb.String()
}
