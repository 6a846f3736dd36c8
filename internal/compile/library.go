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
// argument name: the source file when file is set, else the library
// program name, under the array:dim[,...] directive dist when it is set,
// else under the library program's LibraryDist (none for a file: Compile
// derives the distribution).
func LoadProgram(file, dist, name string) (*loopir.Program, depend.DistSpec, error) {
	prog := loopir.Library()[name]
	spec := LibraryDist(name)
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, depend.DistSpec{}, err
		}
		if prog, err = lang.Parse(string(src)); err != nil {
			return nil, depend.DistSpec{}, fmt.Errorf("%s:%w", file, err)
		}
		spec = depend.DistSpec{}
	} else if prog == nil {
		var names []string
		for n := range loopir.Library() {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, depend.DistSpec{}, fmt.Errorf("unknown program %q; available: %v (or use -file)", name, names)
	}
	if dist != "" {
		var err error
		if spec, err = depend.ParseDist(dist); err != nil {
			return nil, depend.DistSpec{}, fmt.Errorf("-dist: %w", err)
		}
	}
	return prog, spec, nil
}

// LibraryDist returns the directive a loopir.Library program runs under
// when it is not the one Compile derives, or the zero DistSpec, under which
// Compile derives it. Only the Jacobi family has one: the derivation
// distributes its columns, which gather correctly, but the overlap and
// scale experiments (BENCH_overlap.json, BENCH_scale.json) were recorded
// on rows.
func LibraryDist(name string) depend.DistSpec {
	switch name {
	case "jacobi", "jacobi-converge":
		return depend.DistSpec{Dims: map[string]int{"a": 0, "anew": 0}, Loops: []string{"i", "i2"}}
	case "jacobi3d":
		return depend.DistSpec{Dims: map[string]int{"u": 0, "unew": 0}, Loops: []string{"i", "i2"}}
	}
	return depend.DistSpec{}
}
