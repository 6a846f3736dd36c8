// Command dlbcompile runs the parallelizing compiler on a library program
// or a source file and prints the dependence analysis, Table 1 properties,
// and the generated SPMD program with its communication and load-balancing
// hooks.
//
// Usage:
//
//	dlbcompile [-deps] [-table1] [-file src.dlb] [-dist array:dim] [prog]
//
// where prog is one of: mm, sor, lu, jacobi, axpy, threshold-relax.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/loopir"
)

func main() {
	deps := flag.Bool("deps", false, "print the dependence analysis")
	table1 := flag.Bool("table1", false, "print Table 1 (application properties) for mm, sor, lu")
	file := flag.String("file", "", "compile a source file instead of a library program")
	distFlag := flag.String("dist", "", "distribution directive array:dim[,array:dim...] (for -file; default: automatic)")
	flag.Parse()

	if *table1 {
		printTable1()
		return
	}

	name := "sor"
	if flag.NArg() > 0 {
		name = flag.Arg(0)
	}
	prog, spec, err := compile.LoadProgram(*file, *distFlag, name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println("=== sequential source ===")
	fmt.Println(loopir.Render(prog))

	analysis, err := depend.Analyze(prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *deps {
		fmt.Println("=== dependences ===")
		for _, d := range analysis.Deps() {
			fmt.Println(" ", d)
		}
		fmt.Println()
	}
	if len(spec.Dims) > 0 {
		pr, err := analysis.PropertiesFor(spec)
		if err == nil {
			fmt.Println("=== application properties (Table 1 row) ===")
			fmt.Println(" ", pr)
			fmt.Println()
		}
	}

	plan, err := compile.Compile(prog, compile.Options{Dist: spec})
	if err != nil {
		fmt.Fprintln(os.Stderr, "compile:", err)
		os.Exit(1)
	}
	fmt.Println("=== generated SPMD program ===")
	fmt.Println(plan.Source)
}

func printTable1() {
	fmt.Printf("%-34s %-5s %-5s %-5s\n", "Property (of distributed loop)", "MM", "SOR", "LU")
	rows := map[string]depend.Properties{}
	for _, name := range []string{"mm", "sor", "lu"} {
		prog := loopir.Library()[name]
		a, err := depend.Analyze(prog)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pr, err := a.PropertiesFor(compile.LibraryDist(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rows[name] = pr
	}
	mm, sor, lu := rows["mm"].Row(), rows["sor"].Row(), rows["lu"].Row()
	for i, p := range depend.PropertyNames {
		fmt.Printf("%-34s %-5s %-5s %-5s\n", p, mm[i], sor[i], lu[i])
	}
}
