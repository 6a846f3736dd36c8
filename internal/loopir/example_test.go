package loopir_test

import (
	"fmt"

	"repro/internal/loopir"
)

// Build a small program with the constructors, run it, and read a result.
func Example() {
	n := loopir.Iv("n")
	i := loopir.Iv("i")
	prog := &loopir.Program{
		Name:   "scale",
		Params: []string{"n"},
		Arrays: []*loopir.ArrayDecl{
			{Name: "x", Dims: []loopir.IExpr{n}, Init: func(idx []int) float64 { return float64(idx[0]) }},
		},
		Body: []loopir.Stmt{
			loopir.For("i", loopir.Ic(0), n,
				loopir.Set(loopir.Fref("x", i), loopir.Fmul(loopir.Fc(2), loopir.Fref("x", i)))),
		},
	}
	in, err := loopir.NewInstance(prog, map[string]int{"n": 5})
	if err != nil {
		panic(err)
	}
	if err := in.Run(); err != nil {
		panic(err)
	}
	fmt.Println(in.Arrays["x"].Data)
	// Output: [0 2 4 6 8]
}

// Estimate the floating-point work of a loop nest.
func ExampleEstFlops() {
	mm := loopir.MatMul()
	fmt.Printf("%.0f flops for n=100\n", loopir.EstFlops(mm.Body, map[string]int{"n": 100}))
	// Output: 3000000 flops for n=100
}
