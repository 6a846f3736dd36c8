package exp

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/loopir"
)

// Table1 reproduces the paper's Table 1: the application properties of MM,
// SOR and LU, read from the plans the compiler derives for them.
func Table1() (map[string]depend.Properties, error) {
	props := map[string]depend.Properties{}
	for _, name := range []string{"mm", "sor", "lu"} {
		plan, err := compile.Compile(loopir.Library()[name], compile.Options{})
		if err != nil {
			return nil, err
		}
		props[name] = plan.Props
	}
	return props, nil
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

// Fig9Sample is one balancing round of slave 0, normalized as in the
// paper: rates by the maximum raw rate, work by the even-distribution share.
type Fig9Sample struct {
	T        float64 `json:"t_s"`
	Raw      float64 `json:"raw_rate"`
	Filtered float64 `json:"adjusted_rate"`
	Work     float64 `json:"work"`
}

// Fig9Result is the oscillating-load tracking experiment.
type Fig9Result struct {
	Elapsed time.Duration `json:"elapsed_ns"`
	Moves   int           `json:"moves"`
	Samples []Fig9Sample  `json:"samples"`
}

// Fig9 reproduces Figure 9: MM on 4 slaves with an oscillating load (20 s
// period, 10 s on) on slave 0; the samples are slave 0's raw rate, filtered
// rate and work assignment at each balancing round.
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
	out := &Fig9Result{Elapsed: res.Elapsed, Moves: res.Moves}
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
		out.Samples = append(out.Samples, Fig9Sample{
			T:        smp.Time.Seconds(),
			Raw:      smp.RawRate / nonZero(maxRate),
			Filtered: smp.Filtered / nonZero(maxRate),
			Work:     float64(smp.Work) / nonZero(evenShare),
		})
	}
	return out, nil
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}
