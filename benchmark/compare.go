package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// -compare base.jsonl new.jsonl applies the benchmark's own bounds to two
// result files (each any number of runs, as results.jsonl collects them)
// and prints one row per workload and metric: both medians, the ratio and
// its base, and a verdict.

const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved" // the runs' own spread exceeds the bound
	verdictChanged    = "changed"    // an exact (virtual-time, counted) value differs
	verdictUnbounded  = "-"          // per-layer metric: shown, not judged
)

// samples maps workload -> metric -> one value per run.
type samples map[string]map[string][]float64

func loadSamples(path string) (samples, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := samples{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if out[rep.Workload] == nil {
			out[rep.Workload] = map[string][]float64{}
		}
		for name, m := range rep.Metrics {
			out[rep.Workload][name] = append(out[rep.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// judge compares new against base for one bounded metric. A metric whose
// run-to-run spread on either side is wider than the bound is unresolved,
// unless every new run reads better (or worse) than every base run.
func judge(d metricDecl, base, cur []float64) string {
	mb, mc := median(base), median(cur)
	if mb == 0 {
		return verdictUnresolved
	}
	worse := (mc - mb) / mb // share by which new is worse than base
	sign := 1.0
	if d.Better == "higher" {
		worse, sign = -worse, -1
	}
	if spread(base) > d.Bound || spread(cur) > d.Bound {
		allBetter, allWorse := true, true
		for _, b := range base {
			for _, c := range cur {
				if sign*(c-b) >= 0 {
					allBetter = false
				}
				if sign*(c-b) <= 0 {
					allWorse = false
				}
			}
		}
		switch {
		case allBetter:
			return verdictBetter
		case allWorse && worse > d.Bound:
			return verdictWorse
		}
		return verdictUnresolved
	}
	switch {
	case worse > d.Bound:
		return verdictWorse
	case worse < -d.Bound:
		return verdictBetter
	}
	return verdictSame
}

func compareFiles(basePath, curPath string, stdout, stderr io.Writer) int {
	base, err := loadSamples(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	cur, err := loadSamples(curPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if compareSamples(base, cur, stdout) {
		return 1
	}
	return 0
}

// compareSamples prints the table and reports whether any row is worse or
// an exact value changed.
func compareSamples(base, cur samples, w io.Writer) (regressed bool) {
	fmt.Fprintf(w, "%-16s %-26s %14s %14s %9s  %-10s %s\n", "workload", "metric", "base", "new", "new/base", "verdict", "bound")
	for _, entry := range workloads {
		b, c := base[entry.name], cur[entry.name]
		if b == nil || c == nil {
			continue
		}
		row := func(d metricDecl, bounded bool) {
			bv, cv := b[d.Name], c[d.Name]
			if len(bv) == 0 || len(cv) == 0 {
				return
			}
			mb, mc := median(bv), median(cv)
			verdict, bound := verdictUnbounded, ""
			switch {
			case bounded:
				verdict = judge(d, bv, cv)
				bound = fmt.Sprintf("%g (spread base %.3f, new %.3f; runs %d, %d)", d.Bound, spread(bv), spread(cv), len(bv), len(cv))
			case d.Exact && mb != mc:
				verdict = verdictChanged
			case d.Exact:
				verdict = verdictSame
			}
			if verdict == verdictWorse || verdict == verdictChanged {
				regressed = true
			}
			ratio := "n/a"
			if mb != 0 {
				ratio = fmt.Sprintf("%.4f", mc/mb)
			}
			fmt.Fprintf(w, "%-16s %-26s %14.6g %14.6g %9s  %-10s %s\n", entry.name, d.Name, mb, mc, ratio, verdict, bound)
		}
		for _, d := range endToEnd {
			row(d, true)
		}
		for _, d := range perLayer {
			row(d, false)
		}
	}
	return regressed
}
