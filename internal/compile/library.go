package compile

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/depend"
	"repro/internal/lang"
	"repro/internal/loopir"
)

// LoadProgram resolves what the commands' -file/-dist flags and program
// argument name: the source file parsed under the array:dim[,...]
// directive dist (none: automatic distribution) when file is set, else the
// library program name under its LibraryDist directive.
func LoadProgram(file, dist, name string) (*loopir.Program, depend.DistSpec, error) {
	if file == "" {
		prog := loopir.Library()[name]
		if prog == nil {
			var names []string
			for n := range loopir.Library() {
				names = append(names, n)
			}
			sort.Strings(names)
			return nil, depend.DistSpec{}, fmt.Errorf("unknown program %q; available: %v (or use -file)", name, names)
		}
		return prog, LibraryDist(name), nil
	}
	src, err := os.ReadFile(file)
	if err != nil {
		return nil, depend.DistSpec{}, err
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		return nil, depend.DistSpec{}, fmt.Errorf("%s:%w", file, err)
	}
	var spec depend.DistSpec
	if dist != "" {
		if spec, err = depend.ParseDist(dist); err != nil {
			return nil, depend.DistSpec{}, fmt.Errorf("-dist: %w", err)
		}
	}
	return prog, spec, nil
}

// LibraryDist returns the distribution directive of a loopir.Library
// program — what a Fortran D programmer would have written above it — or
// the zero DistSpec for a program that has none, which Compile distributes
// automatically. It is the one table of these directives: the commands,
// the experiments and the examples all compile library programs under it.
func LibraryDist(name string) depend.DistSpec {
	switch name {
	case "mm":
		return depend.DistSpec{Dims: map[string]int{"c": 1, "b": 1}, Loops: []string{"j"}}
	case "sor", "periodic-sor":
		return depend.DistSpec{Dims: map[string]int{"b": 0}, Loops: []string{"j"}}
	case "lu":
		return depend.DistSpec{Dims: map[string]int{"a": 1}, Loops: []string{"j"}}
	case "jacobi", "jacobi-converge":
		return depend.DistSpec{Dims: map[string]int{"a": 0, "anew": 0}, Loops: []string{"i", "i2"}}
	case "axpy":
		return depend.DistSpec{Dims: map[string]int{"x": 0, "y": 0}, Loops: []string{"i"}}
	case "jacobi3d":
		return depend.DistSpec{Dims: map[string]int{"u": 0, "unew": 0}, Loops: []string{"i", "i2"}}
	case "threshold-relax":
		// Column distribution: the Gauss–Seidel-style pipeline then runs
		// along rows, which the strip miner supports (like SOR).
		return depend.DistSpec{Dims: map[string]int{"v": 1}, Loops: []string{"j"}}
	}
	return depend.DistSpec{}
}
