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
	skipped []int // region indices refused by the emitter
}

// emitSpec emits every region of the spec (or the whole body) and
// assembles the package source. A region the emitter refuses (non-affine
// subscripts) is recorded in skipped and gets a nil kernel slot; the
// build fails only if nothing at all is emittable.
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
				e.kernels = append(e.kernels, nil)
				e.skipped = append(e.skipped, i)
				continue
			}
			e.kernels = append(e.kernels, ek)
		}
	}
	live := 0
	for _, ek := range e.kernels {
		if ek != nil {
			live++
		}
	}
	if live == 0 {
		return nil, fmt.Errorf("aot: no emittable kernel region in %s", spec.Prog.Name)
	}

	if e.src, err = kernelsFile(spec.Prog.Name, e.kernels); err != nil {
		return nil, err
	}
	return e, nil
}

// kernelsFile renders the kernel functions and the lookup table. A nil
// slot (skipped region) keeps its table index with a nil entry so kernel
// indices always equal region indices.
func kernelsFile(progName string, kernels []*loopir.EmittedKernel) (string, error) {
	var b strings.Builder
	b.WriteString("// Code generated by repro/internal/aot; DO NOT EDIT.\n")
	fmt.Fprintf(&b, "//\n// AOT kernels for program %q.\n", progName)
	b.WriteString("package main\n\n")
	for _, ek := range kernels {
		if ek == nil {
			continue
		}
		b.WriteString(ek.Src)
		b.WriteString("\n")
	}
	b.WriteString("// Kernels indexes the emitted kernels by region; the host looks this\n")
	b.WriteString("// symbol up. A nil entry is a region the emitter refused (the host\n")
	b.WriteString("// falls back to the VM tier for it).\n")
	b.WriteString("var Kernels = []func(lo, hi int, regs []int, data [][]float64){\n")
	for _, ek := range kernels {
		if ek == nil {
			b.WriteString("\tnil,\n")
		} else {
			fmt.Fprintf(&b, "\t%s,\n", ek.Name)
		}
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
