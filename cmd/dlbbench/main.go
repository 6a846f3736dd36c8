// Command dlbbench regenerates every table and figure of the paper's
// evaluation, plus the ablation and extension experiments, as text tables,
// CSV and BENCH_*.json. Everything it prints is deterministic virtual-time
// model output; wall-clock measurement is the benchmark/ module's job.
//
// Usage:
//
//	dlbbench                  # everything, full scale, to stdout
//	dlbbench -exp fig5        # one experiment
//	dlbbench -quick           # reduced problem sizes (same virtual scale)
//	dlbbench -out results/    # write <name>.txt (plus fig9.csv, BENCH_*.json)
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
	out := flag.String("out", "", "directory to write artifacts to (default: stdout)")
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
	write := func(name, content string) {
		path := filepath.Join(*out, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fail(err)
		}
		fmt.Println("wrote", path)
	}

	ran := false
	for _, e := range exp.Experiments {
		if *which != "all" && !strings.EqualFold(*which, e.Name) {
			continue
		}
		ran = true
		a, err := e.Run(scale)
		if err != nil {
			fail(err)
		}
		if *out == "" {
			fmt.Println(a.Text)
			continue
		}
		write(e.Name+".txt", a.Text)
		for name, content := range a.Files {
			write(name, content)
		}
	}
	if !ran {
		fail(fmt.Errorf("unknown experiment %q (have: all, %s)", *which, strings.Join(names, ", ")))
	}
}
