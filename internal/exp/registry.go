package exp

import (
	"encoding/json"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Artifact is what one experiment produces: the text table, plus any
// machine-readable files (CSV, BENCH_*.json) by file name.
type Artifact struct {
	Text  string
	Files map[string]string
}

// Experiment is one registry entry.
type Experiment struct {
	Name string
	Run  func(Scale) (Artifact, error)
}

// Experiments is every experiment this package can regenerate, in the
// order cmd/dlbbench prints them. All of it is deterministic model output
// (see the package comment); wall-clock measurement lives in benchmark/.
var Experiments = []Experiment{
	{"table1", text(func(Scale) (*metrics.Table, error) { return Table1() }, (*metrics.Table).String)},
	{"fig5", text(Fig5, (*Sweep).Render)},
	{"fig6", text(Fig6, (*Sweep).Render)},
	{"fig7", text(Fig7, (*Sweep).Render)},
	{"fig8", text(Fig8, (*Sweep).Render)},
	{"fig9", func(s Scale) (Artifact, error) {
		f, err := Fig9(s)
		if err != nil {
			return Artifact{}, err
		}
		return Artifact{
			Text:  f.Render(),
			Files: map[string]string{"fig9.csv": trace.CSV(f.Raw, f.Filtered, f.Work)},
		}, nil
	}},
	{"pipeline", text(AblationPipelining, RenderPipelining)},
	{"grain", text(AblationGrain, RenderGrain)},
	{"refinements", text(AblationRefinements, RenderRefinements)},
	{"lu", text(AblationLUAdaptive, (*LUResult).Render)},
	{"baselines", text(Baselines, RenderBaselines)},
	{"hetero", text(Heterogeneous, RenderHeterogeneous)},
	{"fault", text(FaultTolerance, RenderFaultTolerance)},
	{"scale", bench("BENCH_scale.json", ScaleSweep, RenderScale)},
	{"irregular", bench("BENCH_irregular.json", Irregular, RenderIrregular)},
	{"overlap", bench("BENCH_overlap.json", Overlap, RenderOverlap)},
}

// text adapts a driver and its renderer to a text-only registry entry.
func text[T any](run func(Scale) (T, error), render func(T) string) func(Scale) (Artifact, error) {
	return func(s Scale) (Artifact, error) {
		v, err := run(s)
		if err != nil {
			return Artifact{}, err
		}
		return Artifact{Text: render(v)}, nil
	}
}

// bench is text plus the report itself as the checked-in JSON file.
func bench[T any](file string, run func(Scale) (T, error), render func(T) string) func(Scale) (Artifact, error) {
	return func(s Scale) (Artifact, error) {
		rep, err := run(s)
		if err != nil {
			return Artifact{}, err
		}
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return Artifact{}, err
		}
		return Artifact{
			Text:  render(rep),
			Files: map[string]string{file: string(b) + "\n"},
		}, nil
	}
}

// Header is the two fields every BENCH_*.json report starts with. Clock is
// always "virtual": the rows are simulated time, identical on any host.
type Header struct {
	Clock string `json:"clock"`
	Note  string `json:"note"`
}

func virtual(note string) Header { return Header{Clock: "virtual", Note: note} }
