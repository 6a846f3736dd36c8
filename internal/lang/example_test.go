package lang_test

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/loopir"
)

// Print a library program as source text, which Parse reads back.
func ExampleFormat() {
	fmt.Print(lang.Format(loopir.Axpy()))
	// Output:
	// program axpy(n, maxiter)
	// array x[n] init hash(7);
	// array y[n] init hash(8);
	// for iter = 0 to maxiter {
	//     for i = 0 to n {
	//         y[i] = ((1.0001 * x[i]) + y[i]);
	//     }
	// }
}
