// Command dlbcompile runs the parallelizing compiler on a library program
// or a source file and prints it as source text (which -file reads back),
// with -deps the dependences under the compiled plan's directive (each
// flagged whether it crosses owners), its Table 1 properties, and the
// generated SPMD program with its communication and load-balancing hooks.
//
// Usage:
//
//	dlbcompile [-deps] [-file src.dlb] [-dist array:dim] [prog]
//
// where prog is a loopir.Library program (default sor). With no -dist a
// program runs under the directive the compiler derives, ranked by exposed
// ghost exchanges.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/lang"
)

func main() {
	deps := flag.Bool("deps", false, "print the dependences under the plan's directive")
	file := flag.String("file", "", "compile a source file instead of a library program")
	distFlag := flag.String("dist", "", "distribution directive array:dim[,array:dim...] (default: derived, ranked by exposed exchanges)")
	flag.Parse()

	name := "sor"
	if flag.NArg() > 0 {
		name = flag.Arg(0)
	}
	prog, spec, err := compile.LoadProgram(*file, *distFlag, name)
	if err != nil {
		fail(err)
	}

	fmt.Println("=== sequential source ===")
	fmt.Println(lang.Format(prog))

	plan, err := compile.Compile(prog, compile.Options{Dist: spec})
	if err != nil {
		fail(err)
	}
	if *deps {
		analysis, err := depend.Analyze(prog)
		if err != nil {
			fail(err)
		}
		deps, err := analysis.DepsFor(plan.Dist)
		if err != nil {
			fail(err)
		}
		fmt.Println("=== dependences under the plan's directive ===")
		for _, d := range deps {
			fmt.Printf("  %v cross-owner=%v\n", d, d.CrossOwner)
		}
		fmt.Println()
	}
	fmt.Println("=== application properties (Table 1 row) ===")
	fmt.Println(" ", plan.Props)
	fmt.Println()
	fmt.Println("=== generated SPMD program ===")
	fmt.Println(plan.Source)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
