package depend_test

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/loopir"
)

// BenchmarkAnalyze is what one compile pays for its dependence analysis,
// timed as the whole of Compile under the program's written directive:
// Analyze numbers the references, and the static rules read them while
// the plan is generated. Nothing runs the program.
func BenchmarkAnalyze(b *testing.B) {
	dirs := map[string]depend.DistSpec{
		"mm":  {Dims: map[string]int{"c": 1, "b": 1}, Loops: []string{"j"}},
		"sor": {Dims: map[string]int{"b": 0}, Loops: []string{"j"}},
		"lu":  {Dims: map[string]int{"a": 1}, Loops: []string{"j"}},
	}
	for _, name := range []string{"mm", "sor", "lu"} {
		prog, opts := loopir.Library()[name], compile.Options{Dist: dirs[name]}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compile.Compile(prog, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
