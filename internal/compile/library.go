package compile

import (
	"fmt"
	"os"

	"repro/internal/depend"
	"repro/internal/lang"
	"repro/internal/loopir"
)

// LoadProgram resolves what the commands' -file/-dist flags and program
// argument name: the source file when file is set, else the library
// program name, under the array:dim[,...] directive dist when it is set,
// else under none (Compile derives the distribution).
func LoadProgram(file, dist, name string) (*loopir.Program, depend.DistSpec, error) {
	prog := loopir.Library()[name]
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, depend.DistSpec{}, err
		}
		if prog, err = lang.Parse(string(src)); err != nil {
			return nil, depend.DistSpec{}, fmt.Errorf("%s:%w", file, err)
		}
	} else if prog == nil {
		return nil, depend.DistSpec{}, fmt.Errorf("unknown program %q; available: %v (or use -file)", name, sortedKeys(loopir.Library()))
	}
	if dist == "" {
		return prog, depend.DistSpec{}, nil
	}
	spec, err := depend.ParseDist(dist)
	if err != nil {
		return nil, depend.DistSpec{}, fmt.Errorf("-dist: %w", err)
	}
	return prog, spec, nil
}
