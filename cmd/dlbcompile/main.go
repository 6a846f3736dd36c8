// Command dlbcompile runs the parallelizing compiler on a library program
// or a source file and prints it as source text (which -file reads back),
// its Table 1 properties, and the generated SPMD program with its
// communication and load-balancing hooks.
//
// Usage:
//
//	dlbcompile [-file src.dlb] [-dist array:dim] [prog]
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
	"repro/internal/lang"
)

func main() {
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
