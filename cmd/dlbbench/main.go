// Command dlbbench regenerates the paper's evaluation and the extension
// experiments as JSON reports, each the checked-in BENCH_<name>.json at
// full scale. Everything it prints is deterministic virtual-time model
// output; wall-clock measurement is the benchmark/ module's job.
//
// Usage:
//
//	dlbbench                  # every report, full scale, to stdout
//	dlbbench -exp paper       # one report
//	dlbbench -quick           # reduced problem sizes (same virtual scale)
//	dlbbench -out results/    # write BENCH_<name>.json there
//
// The experiment names are exp.Experiments; `dlbbench -h` lists them.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/exp"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dlbbench:", err)
	os.Exit(1)
}

func main() {
	names := make([]string, len(exp.Experiments))
	for i, e := range exp.Experiments {
		names[i] = e.Name
	}
	which := flag.String("exp", "all", "experiment to run: all, "+strings.Join(names, ", "))
	quick := flag.Bool("quick", false, "reduced problem sizes")
	out := flag.String("out", "", "directory to write BENCH_<name>.json to (default: stdout)")
	flag.Parse()

	scale := exp.Full
	if *quick {
		scale = exp.Quick
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fail(err)
		}
	}

	ran := false
	for _, e := range exp.Experiments {
		if *which != "all" && !strings.EqualFold(*which, e.Name) {
			continue
		}
		ran = true
		rep, err := e.Run(scale)
		if err != nil {
			fail(err)
		}
		b, err := exp.Marshal(rep)
		if err != nil {
			fail(err)
		}
		if *out == "" {
			os.Stdout.Write(b)
			continue
		}
		path := filepath.Join(*out, "BENCH_"+e.Name+".json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fail(err)
		}
		fmt.Println("wrote", path)
	}
	if !ran {
		fail(fmt.Errorf("unknown experiment %q (have: all, %s)", *which, strings.Join(names, ", ")))
	}
}
