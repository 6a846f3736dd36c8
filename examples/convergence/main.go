// Convergence example: a program whose outer loop terminates when a
// residual drops below a threshold — the paper's data-dependent WHILE case
// (§4.1). The residual accumulation compiles into a recognized sum
// reduction; Combine steps all-reduce the per-slave partials so every slave
// (and the master's phase count) terminates at the same iteration. The
// program is written as source text and parsed by the internal/lang front
// end.
//
//	go run ./examples/convergence
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/dlb"
	"repro/internal/lang"
)

const src = `
program heat(n, maxiter)
array a[n][n] init hash(5);
array anew[n][n] init zero;
array r[1] init zero;
for iter = 0 to maxiter until r[0] < 0.01 {
    r[0] = 0;
    for i = 1 to n-1 {
        for j = 1 to n-1 {
            anew[i][j] = 0.25*((a[i-1][j] + a[i+1][j]) + (a[i][j-1] + a[i][j+1]));
        }
    }
    for i2 = 1 to n-1 {
        for j2 = 1 to n-1 {
            r[0] = r[0] + (anew[i2][j2] - a[i2][j2]) * (anew[i2][j2] - a[i2][j2]);
            a[i2][j2] = anew[i2][j2];
        }
    }
}
`

func main() {
	prog, err := lang.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	// The source above is the library's jacobi-converge in text form. With
	// no directive the compiler derives one: rows of a and anew, scanned by
	// i and i2, the proposal whose ghost exchange overlaps the sweep; the
	// residual r stays replicated.
	plan, err := compile.Compile(prog, compile.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("reductions recognized:", plan.Reductions)
	fmt.Println()
	fmt.Println(plan.Source)

	params := map[string]int{"n": 48, "maxiter": 500}
	res, err := dlb.Run(dlb.Config{
		Plan:     plan,
		Params:   params,
		DLB:      true,
		FlopCost: 20 * time.Microsecond,
	}, cluster.Config{
		Slaves: 4,
		Load:   []cluster.LoadProfile{cluster.Constant(1)},
	})
	if err != nil {
		log.Fatal(err)
	}

	_, ref, err := dlb.SequentialTime(plan, params, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged: residual %.6f (threshold 0.01), %d balancing phases, %d moves\n",
		res.Final["r"].At(0), res.Phases, res.Moves)
	fmt.Printf("upper bound was %d sweeps; the run stopped early by the data-dependent break\n", params["maxiter"])
	fmt.Printf("max |parallel - sequential| on the grid: %g\n", ref["a"].MaxAbsDiff(res.Final["a"]))
}
