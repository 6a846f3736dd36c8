package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// reports maps each registry name to a new value of its report type, for
// strict decoding.
var reports = map[string]func() any{
	"paper":     func() any { return new(PaperReport) },
	"fault":     func() any { return new(FaultReport) },
	"scale":     func() any { return new(ScaleReport) },
	"irregular": func() any { return new(IrregularReport) },
	"overlap":   func() any { return new(OverlapReport) },
}

// checkedIn strictly decodes the checked-in BENCH_<name>.json into rep
// and returns the file's bytes.
func checkedIn(t *testing.T, name string, rep any) []byte {
	t.Helper()
	file := "BENCH_" + name + ".json"
	data, err := os.ReadFile(filepath.Join("..", "..", file))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(rep); err != nil {
		t.Fatalf("%s does not parse as %T: %v", file, rep, err)
	}
	return data
}

// paper is the checked-in BENCH_paper.json, which the shape tests read.
func paper(t *testing.T) *PaperReport {
	t.Helper()
	rep := new(PaperReport)
	checkedIn(t, "paper", rep)
	return rep
}

func TestRegistryNames(t *testing.T) {
	var names []string
	for _, e := range Experiments {
		if e.Run == nil || reports[e.Name] == nil {
			t.Errorf("bad registry entry %q", e.Name)
		}
		names = append(names, e.Name)
	}
	if got := strings.Join(names, " "); got != "paper fault scale irregular overlap" {
		t.Errorf("registry = %s", got)
	}
}

// TestCheckedInArtifacts is the virtual-time equality gate: the simulator
// is deterministic to the nanosecond, so regenerating an experiment at full
// scale must reproduce its checked-in BENCH_<name>.json byte for byte — any
// drift is a behaviour change that has to be explained. BENCH_scale.json
// is only parsed: its full sweep needs ≈8 GB (see scaleNote).
func TestCheckedInArtifacts(t *testing.T) {
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			rep := reports[e.Name]()
			want := checkedIn(t, e.Name, rep)
			var h Header
			if err := json.Unmarshal(want, &h); err != nil || h.Clock != "virtual" || h.Note == "" {
				t.Errorf("BENCH_%s.json header = %+v (%v), want clock \"virtual\" and a note", e.Name, h, err)
			}
			if e.Name == "scale" {
				sr := rep.(*ScaleReport)
				if len(sr.Rows) != 6 || sr.Rows[5].P != 512 || sr.Crossover != 128 {
					t.Errorf("BENCH_scale.json: %d rows, crossover %d; want the 16..512 sweep crossing at 128",
						len(sr.Rows), sr.Crossover)
				}
				return
			}
			if testing.Short() {
				t.Skip("full-scale run")
			}
			got, err := e.Run(Full)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, want) {
				t.Errorf("regenerated BENCH_%s.json differs from the checked-in file at %s", e.Name, firstDiff(string(b), string(want)))
			}
		})
	}
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line %d: one file ends there", min(len(g), len(w)))
}
