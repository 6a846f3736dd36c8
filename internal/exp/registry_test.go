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

// find returns the registry entry with the given name.
func find(t *testing.T, name string) Experiment {
	t.Helper()
	for _, e := range Experiments {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("experiment %q is not in the registry", name)
	return Experiment{}
}

// parseReport strictly decodes a BENCH_*.json file into its report type.
func parseReport[T any](t *testing.T, file string, data []byte) T {
	t.Helper()
	var rep T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("%s does not parse as %T: %v", file, rep, err)
	}
	return rep
}

// runBench runs a JSON-producing experiment at quick scale through the
// registry — the path cmd/dlbbench takes — and parses its file back into
// the report type, so the shape tests assert on what was written.
func runBench[T any](t *testing.T, name, file string) (T, string) {
	t.Helper()
	a, err := find(t, name).Run(Quick)
	if err != nil {
		t.Fatal(err)
	}
	content, ok := a.Files[file]
	if !ok {
		t.Fatalf("%s did not produce %s", name, file)
	}
	return parseReport[T](t, file, []byte(content)), a.Text
}

func TestRegistryNames(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if e.Name == "" || e.Name == "all" || seen[e.Name] || e.Run == nil {
			t.Errorf("bad registry entry %q", e.Name)
		}
		seen[e.Name] = true
	}
	if len(Experiments) != 16 {
		t.Errorf("%d experiments, want 16", len(Experiments))
	}
}

// TestCheckedInArtifacts is the virtual-time equality gate: the simulator
// is deterministic to the nanosecond, so regenerating an experiment at full
// scale must reproduce the checked-in BENCH_*.json byte for byte — any
// drift is a behaviour change that has to be explained. BENCH_scale.json
// is only parsed: its full sweep needs ≈8 GB (see scaleNote).
func TestCheckedInArtifacts(t *testing.T) {
	for _, tc := range []struct {
		exp, file  string
		regenerate bool
		parse      func(t *testing.T, file string, data []byte)
	}{
		{"irregular", "BENCH_irregular.json", true, func(t *testing.T, file string, data []byte) {
			parseReport[IrregularReport](t, file, data)
		}},
		{"overlap", "BENCH_overlap.json", true, func(t *testing.T, file string, data []byte) {
			parseReport[OverlapReport](t, file, data)
		}},
		{"scale", "BENCH_scale.json", false, func(t *testing.T, file string, data []byte) {
			rep := parseReport[ScaleReport](t, file, data)
			if len(rep.Rows) != 6 || rep.Rows[5].P != 512 || rep.Crossover != 128 {
				t.Errorf("%s: %d rows, crossover %d; want the 16..512 sweep crossing at 128",
					file, len(rep.Rows), rep.Crossover)
			}
		}},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			tc.parse(t, tc.file, want)
			var h Header
			if err := json.Unmarshal(want, &h); err != nil || h.Clock != "virtual" || h.Note == "" {
				t.Errorf("%s header = %+v (%v), want clock \"virtual\" and a note", tc.file, h, err)
			}
			if !tc.regenerate {
				return
			}
			if testing.Short() {
				t.Skip("full-scale run")
			}
			a, err := find(t, tc.exp).Run(Full)
			if err != nil {
				t.Fatal(err)
			}
			if got := a.Files[tc.file]; got != string(want) {
				t.Errorf("regenerated %s differs from the checked-in file at %s", tc.file, firstDiff(got, string(want)))
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
