package aot

import (
	"fmt"
	"go/format"
	"strings"

	"repro/internal/loopir"
)

// This file assembles the emitted kernel functions into a standalone Go
// main package of one file, kernels.go, with no imports. Built as a
// plugin, the host looks up the Kernels table; main is the empty function
// the build mode requires and is never called. Staying import-free keeps
// the cold build to the kernels and the runtime, and the compile's
// importcfg empty.

// emitted is the assembled package plus per-kernel metadata.
type emitted struct {
	src     string // kernels.go
	kernels []*loopir.EmittedKernel
}

// emitSpec emits every region of the spec (or the whole body) and
// assembles the package source. A region either emits or the build fails
// with the emitter's error.
func emitSpec(spec Spec) (*emitted, error) {
	in, err := loopir.NewInstance(spec.Prog, spec.Params)
	if err != nil {
		return nil, err
	}
	e := &emitted{}
	if spec.WholeBody {
		ek, err := in.EmitKernelGo(spec.Prog.Body, "Kernel0")
		if err != nil {
			return nil, fmt.Errorf("aot: emit %s: %w", spec.Prog.Name, err)
		}
		e.kernels = append(e.kernels, ek)
	} else {
		for i, r := range spec.Regions {
			ek, err := in.EmitRangeKernelGo(r.DistVar, r.Body, fmt.Sprintf("Kernel%d", i))
			if err != nil {
				return nil, fmt.Errorf("aot: emit %s region %d: %w", spec.Prog.Name, i, err)
			}
			e.kernels = append(e.kernels, ek)
		}
	}

	if e.src, err = kernelsFile(spec.Prog.Name, e.kernels); err != nil {
		return nil, err
	}
	return e, nil
}

// kernelsFile renders the kernel functions and the lookup table, whose
// indices are region indices.
func kernelsFile(progName string, kernels []*loopir.EmittedKernel) (string, error) {
	var b strings.Builder
	b.WriteString("// Code generated by repro/internal/aot; DO NOT EDIT.\n")
	fmt.Fprintf(&b, "//\n// AOT kernels for program %q.\n", progName)
	b.WriteString("package main\n\n")
	for _, ek := range kernels {
		b.WriteString(ek.Src)
		b.WriteString("\n")
	}
	b.WriteString("// Kernels indexes the emitted kernels by region; the host looks this\n")
	b.WriteString("// symbol up.\n")
	b.WriteString("var Kernels = []func(lo, hi int, regs []int, data [][]float64){\n")
	for _, ek := range kernels {
		fmt.Fprintf(&b, "\t%s,\n", ek.Name)
	}
	b.WriteString("}\n\n")
	b.WriteString("// main exists because a plugin is built from package main.\n")
	b.WriteString("func main() {}\n")

	src, err := format.Source([]byte(b.String()))
	if err != nil {
		return "", fmt.Errorf("aot: emitted source does not format: %w\n%s", err, b.String())
	}
	return string(src), nil
}
