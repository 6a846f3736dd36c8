package exp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/loopir"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Table1 reproduces the paper's Table 1: application properties of MM, SOR,
// and LU as derived by the dependence analyzer.
func Table1() (*metrics.Table, error) {
	t := &metrics.Table{
		Title:   "Table 1 — Application properties (derived by internal/depend)",
		Headers: []string{"property (of distributed loop)", "MM", "SOR", "LU"},
	}
	cols := map[string]depend.Properties{}
	for _, name := range []string{"mm", "sor", "lu"} {
		prog := loopir.Library()[name]
		a, err := depend.Analyze(prog)
		if err != nil {
			return nil, err
		}
		pr, err := a.PropertiesFor(compile.LibraryDist(name))
		if err != nil {
			return nil, err
		}
		cols[name] = pr
	}
	mm, sor, lu := cols["mm"].Row(), cols["sor"].Row(), cols["lu"].Row()
	for i, prop := range depend.PropertyNames {
		t.AddRow(prop, mm[i], sor[i], lu[i])
	}
	return t, nil
}

// loadedSlave0 puts one constant competing task on slave 0 (Figures 7/8).
func loadedSlave0(int) []cluster.LoadProfile {
	return []cluster.LoadProfile{cluster.Constant(1)}
}

// Fig5 reproduces Figure 5: MM in a dedicated homogeneous environment.
func Fig5(s Scale) (*Sweep, error) {
	app, err := MMApp(s)
	if err != nil {
		return nil, err
	}
	return app.RunSweep("Figure 5", fmt.Sprintf("%dx%d MM, dedicated homogeneous", s.MM, s.MM), s.MaxP, nil)
}

// Fig6 reproduces Figure 6: SOR in a dedicated homogeneous environment.
func Fig6(s Scale) (*Sweep, error) {
	app, err := SORApp(s)
	if err != nil {
		return nil, err
	}
	return app.RunSweep("Figure 6", fmt.Sprintf("%dx%d SOR, dedicated homogeneous", s.SOR, s.SOR), s.MaxP, nil)
}

// Fig7 reproduces Figure 7: MM with a constant competing load on one
// processor.
func Fig7(s Scale) (*Sweep, error) {
	app, err := MMApp(s)
	if err != nil {
		return nil, err
	}
	return app.RunSweep("Figure 7", fmt.Sprintf("%dx%d MM, constant load on slave 0", s.MM, s.MM), s.MaxP, loadedSlave0)
}

// Fig8 reproduces Figure 8: SOR with a constant competing load on one
// processor.
func Fig8(s Scale) (*Sweep, error) {
	app, err := SORApp(s)
	if err != nil {
		return nil, err
	}
	return app.RunSweep("Figure 8", fmt.Sprintf("%dx%d SOR, constant load on slave 0", s.SOR, s.SOR), s.MaxP, loadedSlave0)
}

// Fig9Result is the oscillating-load tracking experiment.
type Fig9Result struct {
	Raw      *trace.Series
	Filtered *trace.Series
	Work     *trace.Series
	Elapsed  time.Duration
	Moves    int
}

// Fig9 reproduces Figure 9: MM on 4 slaves with an oscillating load (20 s
// period, 10 s on) on slave 0; the series are slave 0's raw rate, filtered
// rate, and work assignment, each normalized as in the paper (rates by the
// maximum rate, work by the even-distribution share).
func Fig9(s Scale) (*Fig9Result, error) {
	app, err := MMApp(s)
	if err != nil {
		return nil, err
	}
	const slaves = 4
	res, err := app.RunOnce(slaves, []cluster.LoadProfile{cluster.SquareWave{
		Period:     20 * time.Second,
		OnDuration: 10 * time.Second,
		Tasks:      1,
	}}, nil)
	if err != nil {
		return nil, err
	}
	out := &Fig9Result{
		Raw:      &trace.Series{Name: "raw-rate"},
		Filtered: &trace.Series{Name: "adjusted-rate"},
		Work:     &trace.Series{Name: "work"},
		Elapsed:  res.Elapsed,
		Moves:    res.Moves,
	}
	maxRate := 0.0
	for _, smp := range res.Trace {
		if smp.Slave == 0 && smp.RawRate > maxRate {
			maxRate = smp.RawRate
		}
	}
	evenShare := float64(res.Exec.Units) / slaves
	for _, smp := range res.Trace {
		if smp.Slave != 0 {
			continue
		}
		t := smp.Time.Seconds()
		out.Raw.Append(t, smp.RawRate/nonZero(maxRate))
		out.Filtered.Append(t, smp.Filtered/nonZero(maxRate))
		out.Work.Append(t, float64(smp.Work)/nonZero(evenShare))
	}
	return out, nil
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// Render formats Figure 9 as an ASCII plot plus CSV.
func (f *Fig9Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 9 — MM, oscillating load on slave 0 (20s period, 10s on); run %.0fs, %d moves\n",
		f.Elapsed.Seconds(), f.Moves)
	sb.WriteString(trace.PlotASCII(72, 14, f.Raw, f.Filtered, f.Work))
	sb.WriteString("\nCSV:\n")
	sb.WriteString(trace.CSV(f.Raw, f.Filtered, f.Work))
	return sb.String()
}
