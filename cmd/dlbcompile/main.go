// Command dlbcompile runs the parallelizing compiler on a library program
// or a source file and prints the dependence analysis, Table 1 properties,
// and the generated SPMD program with its communication and load-balancing
// hooks.
//
// Usage:
//
//	dlbcompile [-deps] [-table1] [-file src.dlb] [-dist array:dim] [prog]
//
// where prog is a loopir.Library program (default sor). With no -dist a
// program runs under compile.LibraryDist, else under the directive the
// compiler derives.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/exp"
	"repro/internal/loopir"
)

func main() {
	deps := flag.Bool("deps", false, "print the dependence analysis")
	table1 := flag.Bool("table1", false, "print Table 1 (application properties) for mm, sor, lu")
	file := flag.String("file", "", "compile a source file instead of a library program")
	distFlag := flag.String("dist", "", "distribution directive array:dim[,array:dim...] (default: the program's LibraryDist, else derived)")
	flag.Parse()

	if *table1 {
		t, err := exp.Table1()
		if err != nil {
			fail(err)
		}
		fmt.Print(t)
		return
	}

	name := "sor"
	if flag.NArg() > 0 {
		name = flag.Arg(0)
	}
	prog, spec, err := compile.LoadProgram(*file, *distFlag, name)
	if err != nil {
		fail(err)
	}

	fmt.Println("=== sequential source ===")
	fmt.Println(loopir.Render(prog))

	if *deps {
		analysis, err := depend.Analyze(prog)
		if err != nil {
			fail(err)
		}
		fmt.Println("=== dependences ===")
		for _, d := range analysis.Deps() {
			fmt.Println(" ", d)
		}
		fmt.Println()
	}
	plan, err := compile.Compile(prog, compile.Options{Dist: spec})
	if err != nil {
		fail(err)
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
