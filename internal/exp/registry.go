package exp

import (
	"encoding/json"
	"sync"

	"repro/internal/depend"
)

// Experiment is one registry entry: Run returns the experiment's report, a
// plain value whose one form is Marshal's JSON.
type Experiment struct {
	Name string
	Run  func(Scale) (any, error)
}

// Experiments is every experiment this package can regenerate, in the
// order cmd/dlbbench runs them; each one's checked-in form is
// BENCH_<name>.json at Full scale. All of it is deterministic model output
// (see the package comment); wall-clock measurement lives in benchmark/.
var Experiments = []Experiment{
	{"paper", report(Paper)},
	{"fault", report(FaultTolerance)},
	{"scale", report(ScaleSweep)},
	{"irregular", report(Irregular)},
	{"overlap", report(Overlap)},
}

// report adapts a driver to the registry's signature.
func report[T any](run func(Scale) (T, error)) func(Scale) (any, error) {
	return func(s Scale) (any, error) { return run(s) }
}

// Marshal is a report's one form: indented JSON with a trailing newline.
func Marshal(rep any) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Header is the two fields every BENCH_*.json report starts with. Clock is
// always "virtual": the rows are simulated time, identical on any host.
type Header struct {
	Clock string `json:"clock"`
	Note  string `json:"note"`
}

func virtual(note string) Header { return Header{Clock: "virtual", Note: note} }

// PaperReport is the paper's evaluation (DESIGN.md §4): Table 1, Figures
// 5-9, the §3.3/§4.4/§3.2/§4.7 ablations, the §6 related-work baselines and
// the heterogeneous-environment claim of the conclusions. Times are
// virtual nanoseconds, calibrated to the paper's sequential baselines.
type PaperReport struct {
	Header
	Table1        map[string]depend.Properties `json:"table1"`
	Fig5          *Sweep                       `json:"fig5"`
	Fig6          *Sweep                       `json:"fig6"`
	Fig7          *Sweep                       `json:"fig7"`
	Fig8          *Sweep                       `json:"fig8"`
	Fig9          *Fig9Result                  `json:"fig9"`
	Pipelining    []PipeliningRow              `json:"pipelining"`
	Grain         []GrainRow                   `json:"grain"`
	Refinements   []RefinementRow              `json:"refinements"`
	LU            *LUResult                    `json:"lu"`
	Baselines     []BaselineRow                `json:"baselines"`
	Heterogeneous []HeteroRow                  `json:"heterogeneous"`
}

// Paper runs every driver of the paper's evaluation into one report. The
// drivers share nothing, so they run concurrently, each writing its own
// field; the first error in the report's order wins.
func Paper(s Scale) (*PaperReport, error) {
	rep := &PaperReport{Header: virtual("the paper's Table 1, Figures 5-9, ablations A1-A5 and the heterogeneous claim; " +
		"times in virtual ns, calibrated so MM's and SOR's sequential runs take the paper's 250 s and 350 s")}
	drivers := []func() error{
		func() (err error) { rep.Table1, err = Table1(); return },
		func() (err error) { rep.Fig5, err = Fig5(s); return },
		func() (err error) { rep.Fig6, err = Fig6(s); return },
		func() (err error) { rep.Fig7, err = Fig7(s); return },
		func() (err error) { rep.Fig8, err = Fig8(s); return },
		func() (err error) { rep.Fig9, err = Fig9(s); return },
		func() (err error) { rep.Pipelining, err = AblationPipelining(s); return },
		func() (err error) { rep.Grain, err = AblationGrain(s); return },
		func() (err error) { rep.Refinements, err = AblationRefinements(s); return },
		func() (err error) { rep.LU, err = AblationLUAdaptive(s); return },
		func() (err error) { rep.Baselines, err = Baselines(s); return },
		func() (err error) { rep.Heterogeneous, err = Heterogeneous(s); return },
	}
	errs := make([]error, len(drivers))
	var wg sync.WaitGroup
	for i, run := range drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = run()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}
