package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/lang"
	"repro/internal/loopir"
	"repro/internal/netrun"
	"repro/internal/svc"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond, ok := tail(xs, 95); !ok || beyond != 10 || v != 190 {
		t.Errorf("200 samples: p95 = %v with %d beyond, ok %v; want 190, 10, true", v, beyond, ok)
	}
	if _, beyond, ok := tail(xs[:199], 95); ok || beyond != 9 {
		t.Errorf("199 samples: %d beyond, ok %v; want 9 beyond and not reported", beyond, ok)
	}
	if _, beyond, ok := tail(xs, 99); ok || beyond != 2 {
		t.Errorf("p99 of 200: %d beyond, ok %v; want 2 beyond and not reported", beyond, ok)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeIsDurationMinusCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: union 10..60
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent: 90..100
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	fillSelf(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5} {
		if got := spans[id-1].SelfUS; got != want {
			t.Errorf("span %d self = %d, want %d", id, got, want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	h := tr.begin(1, "op")
	h.child("x").end()
	h.end()
	if got := tr.finished(); got != nil {
		t.Errorf("nil tracer returned spans: %v", got)
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, runSeconds = %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bj.Paths)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	claim := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(workloads) != 4 || len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in BENCHMARK.json, want 4", len(workloads), len(bj.Workloads))
	}
	for i, w := range workloads {
		claim(w.name)
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, bj.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}

	if len(endToEnd) > 16 || len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in BENCHMARK.json (at most 16)", len(endToEnd), len(bj.EndToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		claim(d.Name)
		j := bj.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, code has %+v", i, j, d)
		}
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q, bound %v", d.Name, d.Unit, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(perLayer) > 128 || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in BENCHMARK.json (at most 128)", len(perLayer), len(bj.PerLayer))
	}
	for i, d := range perLayer {
		claim(d.Name)
		j := bj.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, code has %+v", i, j, d)
		}
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
}

func TestFlopCountEqualsExactFlops(t *testing.T) {
	e := &env{opt: options{seed: 1}}
	for family, params := range map[string]map[string]int{
		"mm":     {"n": 13},
		"jacobi": {"n": 17, "maxiter": 5},
		"sor":    {"n": 15, "maxiter": 3},
		"lu":     {"n": 19},
	} {
		prog, err := lang.Parse(sources[family].render(family, e.rng(1)))
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if got, want := flopCount(prog.Body, params), loopir.ExactFlops(prog.Body, params); got != want {
			t.Errorf("%s: flopCount = %d, ExactFlops = %d", family, got, want)
		}
	}
}

func TestSourcesEqualTheLibraryPrograms(t *testing.T) {
	// The benchmark's texts are the library's programs with seeded
	// initializers: with the library's salts they compute the same arrays.
	e := &env{opt: options{seed: 1}}
	for family, params := range map[string]map[string]int{
		"mm": {"n": 12}, "jacobi": {"n": 12, "maxiter": 3}, "sor": {"n": 12, "maxiter": 3}, "lu": {"n": 12},
	} {
		lib := loopir.Library()[family]
		prog, err := lang.Parse(sources[family].render(family, e.rng(1)))
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		for i, a := range prog.Arrays {
			a.Init, a.InitSpec = lib.Arrays[i].Init, lib.Arrays[i].InitSpec
		}
		got, err := loopir.NewInstance(prog, params)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := loopir.NewInstance(lib, params)
		if err := got.Interpret(); err != nil {
			t.Fatal(err)
		}
		want.Interpret()
		if d := maxDiff(want.Arrays, got.Arrays); d != 0 {
			t.Errorf("%s: benchmark source differs from the library program by %g", family, d)
		}
	}
}

// The checksum helper must agree with what a real service job reports.
func TestChecksumsAgreeWithService(t *testing.T) {
	e := &env{opt: options{seed: 1}}
	k := &jobKind{family: "mm", n: 24, slaves: 1}
	k.src = sources[k.family].render(k.family, e.rng(1))
	prog, err := lang.Parse(k.src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(prog, k.params(0), execRun, "")
	if err != nil {
		t.Fatal(err)
	}

	srv, err := netrun.NewServer(netrun.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	service, err := svc.New(svc.Options{Addrs: []string{srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer service.Close()
	id, err := service.Submit(k.spec(0))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	var res svc.JobResult
	for {
		res, err = service.Result(id)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if res.State != svc.StateDone {
		t.Fatalf("job ended %s: %s", res.State, res.Error)
	}
	want := checksums(ref.arrays)
	if !sameSums(want, res.Arrays) {
		t.Errorf("service reports %+v, helper computes %+v", res.Arrays, want)
	}
	bad := append([]arraySum(nil), res.Arrays...)
	bad[0].SHA256 = strings.Repeat("0", 64)
	if sameSums(want, bad) {
		t.Error("a wrong checksum was accepted")
	}
	if sameSums(want, nil) {
		t.Error("a result without arrays was accepted")
	}
}

// Every workload, once, at tiny sizes: two operations, then the traced pass.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	for i := range workloads {
		entry := &workloads[i]
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(entry, options{
				seed: 1, seconds: 0.05, tiny: true, traced: traced,
				maxOps: 2, minSetups: 1, watchdog: 20 * time.Second,
				outDir: dir,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", entry.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, attempted %d, failed %d: %v", entry.name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
			}
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			if len(rep.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", entry.name, traced, len(rep.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", entry.name, traced, d.Name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", entry.name, d.Name, m.Value)
				}
			}
			if traced && len(rep.spans) == 0 {
				t.Errorf("%s: traced pass recorded no spans", entry.name)
			}
		}
	}
}

// stuckWorld's first operation never returns; the watchdog must count it
// as failed and let the loop go on.
type stuckWorld struct {
	release chan struct{}
}

func (w *stuckWorld) operate(until time.Time, maxOps int, _ *tracer) ([]opRecord, time.Duration, obs) {
	recs, span := closedLoop(until, maxOps, 30*time.Millisecond, 1, func(n int) opRecord {
		if n == 1 {
			<-w.release
		}
		return opRecord{seconds: 0.001, flops: 1}
	})
	return recs, span, nil
}

func (w *stuckWorld) close() {}

func TestWatchdogCountsAHangAsAFailure(t *testing.T) {
	w := &stuckWorld{release: make(chan struct{})}
	defer close(w.release)
	recs, _, _ := w.operate(time.Now().Add(time.Minute), 2, nil)
	if len(recs) != 2 || recs[0].err == nil || recs[1].err != nil {
		t.Fatalf("records = %+v; want a watchdog failure, then a success", recs)
	}
	if !strings.Contains(recs[0].err.Error(), "watchdog") {
		t.Errorf("first error = %v, want the watchdog's", recs[0].err)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDecl{Name: "run_p50_s", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "work_mflops", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d         metricDecl
		base, cur []float64
		want      string
	}{
		{lower, []float64{1.00}, []float64{1.05}, verdictSame},
		{lower, []float64{1.00}, []float64{1.20}, verdictWorse},
		{lower, []float64{1.00}, []float64{0.80}, verdictBetter},
		{higher, []float64{100}, []float64{80}, verdictWorse},
		{higher, []float64{100}, []float64{120}, verdictBetter},
		// Spread wider than the bound: unresolved unless the sides do not overlap.
		{lower, []float64{0.8, 1.0, 1.2, 1.4}, []float64{0.9, 1.1, 1.3, 1.5}, verdictUnresolved},
		{lower, []float64{1.0, 1.2, 1.4, 1.6}, []float64{0.5, 0.6, 0.7, 0.8}, verdictBetter},
		{lower, []float64{0.5, 0.6, 0.7, 0.8}, []float64{1.0, 1.2, 1.4, 1.6}, verdictWorse},
	} {
		if got := judge(c.d, c.base, c.cur); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.d.Name, c.base, c.cur, got, c.want)
		}
	}
}

func TestCompareFlagsChangedExactValues(t *testing.T) {
	base := samples{"sim_sor_wave": {"vt_makespan_s": {48.75}, "run_p50_s": {1.0}, "lang.parse_us": {40}}}
	same := samples{"sim_sor_wave": {"vt_makespan_s": {48.75}, "run_p50_s": {1.02}, "lang.parse_us": {90}}}
	moved := samples{"sim_sor_wave": {"vt_makespan_s": {48.76}, "run_p50_s": {1.0}, "lang.parse_us": {40}}}
	var out bytes.Buffer
	if compareSamples(base, same, &out) {
		t.Errorf("equal virtual time and a run within its bound reported as a regression:\n%s", out.String())
	}
	if !compareSamples(base, moved, &out) {
		t.Error("a changed virtual makespan was not reported")
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "svc_mix", "--seed", "3", "--seconds", "20", "--trace", "1"})
	want := []string{"--workload", "svc_mix", "--seed", "3", "--seconds", "20", "--trace=1"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
	if got := normalizeArgs([]string{"-trace"}); len(got) != 1 || got[0] != "-trace" {
		t.Errorf("bare -trace = %v", got)
	}
}
