// Command benchmark is the repository's end-to-end benchmark: four
// workloads, each taken from source text through lang.Parse,
// compile.Compile and (where used) the AOT build to a scattered, balanced,
// gathered result that is checked bit for bit against a sequential run,
// and measured from outside the program.
//
//	go run -C benchmark .                         all workloads, end-to-end metrics
//	go run -C benchmark . -trace                  all workloads, per-layer metrics + trace files
//	go run -C benchmark . -workload svc_mix -seed 3 -seconds 20 -trace 0
//	go run -C benchmark . -compare a.jsonl b.jsonl
//
// See README.md for the metric glossary and the interaction table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/aot"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// normalizeArgs lets the boolean -trace flag also be written "-trace 0" or
// "-trace 1" (two arguments), which Go's flag package would otherwise read
// as -trace followed by a positional argument.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	workloadName := fs.String("workload", "", "run one workload (default: all four, one at a time)")
	fs.Int64Var(&opt.seed, "seed", 1, "seed for the generated inputs")
	fs.Float64Var(&opt.seconds, "seconds", runSeconds, "length of the measured phase")
	fs.BoolVar(&opt.traced, "trace", false, "traced pass: per-layer metrics and trace-<workload>.json instead of end-to-end metrics")
	out := fs.String("out", ".bench_build", "directory for results.jsonl, trace files and AOT caches")
	compareMode := fs.Bool("compare", false, "compare two result files: -compare base.jsonl new.jsonl")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	entries := workloads
	if *workloadName != "" {
		entry := findWorkload(*workloadName)
		if entry == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		entries = []workloadEntry{*entry}
	}
	opt.outDir = *out
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	// Exec-mode AOT runners are child processes; stop them before exiting.
	defer aot.ClearMemory()

	code := 0
	for i := range entries {
		if i > 0 {
			runtime.GC() // one workload's garbage is not the next one's pause
		}
		rep, err := runWorkload(&entries[i], opt)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		printReport(stdout, &entries[i], rep)
		if rep.Traced {
			path := filepath.Join(opt.outDir, "trace-"+rep.Workload+".json")
			tf := traceFile{Workload: rep.Workload, Seed: rep.Seed, Host: rep.Host, Summary: summarize(rep.spans), Spans: rep.spans}
			if err := writeTrace(path, tf); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "trace: %s (%d spans)\n", path, len(rep.spans))
		}
		if err := appendResult(filepath.Join(opt.outDir, "results.jsonl"), rep); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		// The contract line: exactly these four keys, last on stdout.
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rep.Correct {
			code = 1
		}
	}
	return code
}

// host records where the numbers were taken.
func host(e *env) hostInfo {
	h := hostInfo{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		AOTMode:    e.aotMode,
	}
	if h.AOTMode == "" {
		h.AOTMode = "not used"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	// go run does not stamp the binary; ask git, if this is a checkout.
	if h.Commit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

func printReport(w io.Writer, entry *workloadEntry, rep *report) {
	pass := "untraced pass: end-to-end metrics"
	if rep.Traced {
		pass = "traced pass: per-layer metrics"
	}
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  %s\n", rep.Workload, rep.Seed, rep.Seconds, pass)
	fmt.Fprintf(w, "   why: %s\n", entry.why)
	h := rep.Host
	fmt.Fprintf(w, "   host: cpus=%d GOMAXPROCS=%d %s commit=%s aot=%s\n", h.CPUs, h.GOMAXPROCS, h.GoVersion, h.Commit, h.AOTMode)
	fmt.Fprintf(w, "   operations: attempted=%d failed=%d  set-ups=%d\n", rep.Attempted, rep.Failed, rep.Setups)
	for _, msg := range rep.Errors {
		fmt.Fprintf(w, "   FAILED: %s\n", msg)
	}
	decls := endToEnd
	if rep.Traced {
		decls = perLayer
	}
	for _, d := range decls {
		note := rep.notes[d.Name]
		if note != "" {
			note = "  # " + note
		}
		fmt.Fprintf(w, "%-28s %14.6g %-8s %-8s%s\n", d.Name, rep.Metrics[d.Name].Value, d.Unit, d.Clock, note)
	}
	if rep.Traced {
		fmt.Fprintf(w, "   spans by name: %-30s %6s %12s %12s\n", "", "count", "total ms", "self ms")
		for _, s := range summarize(rep.spans) {
			fmt.Fprintf(w, "   %-44s %6d %12.2f %12.2f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
		}
	}
}

// appendResult adds the report as one JSON line.
func appendResult(path string, rep *report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
