package compile

import (
	"fmt"
	"hash/fnv"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/loopir"
)

// emitFingerprint hashes one emitted kernel's Go source, or names the
// refusal.
func emitFingerprint(ek *loopir.EmittedKernel, err error) string {
	if err != nil {
		return "refused"
	}
	h := fnv.New64a()
	h.Write([]byte(ek.Src))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestEmittedKernelsPinned pins the Go source the AOT emitter produces for
// every library program under its derived directive, at the
// instantiateParams sizes: one FNV-64a hash per KernelRegions region
// (EmitRangeKernelGo) and one for the whole body (EmitKernelGo), or
// "refused" where the emitter refuses. The source spells out register
// names, site numbers and every flat offset, so the table moves if the
// kernel compiler's register assignment or site interning does; an edit
// here is a behaviour change.
func TestEmittedKernelsPinned(t *testing.T) {
	want := map[string]string{
		"axpy":            "i=4120882577a5dad3 whole=69397e739e4b3389",
		"jacobi":          "i=f01a3cdb37f7b54a i2=8cfe46c551bd575a whole=77b78aa23c99b1a4",
		"jacobi-converge": "i=d8775b27c5be4ec0 i2=2043d3e85dd40c9d whole=97d0ea71c08b309e",
		"jacobi3d":        "i=2551f0eba420266b i2=84492e00188391da whole=bec6eb2d014df5e8",
		"lu":              "j=73b3fe12579bc545 whole=0a4b8dc5da96727f",
		"mm":              "j=654650fe736f4408 whole=bd3b221ba9e38b4b",
		"pbin":            "i=e1adda14827f677b whole=5b7cbd90654cea7e",
		"periodic-sor":    "j=9623e48f66673499 whole=ce41e7911a74cd6d",
		"sor":             "j=cff127c4bc1ab563 whole=01d0a90592eea9a0",
		"spmv":            "i=cab6e45bd773dc86 whole=8cb35db05aeaead9",
		"threshold-relax": "j=fdcf86e21df245b1 whole=d041c71a7c642d5a",
	}
	names := make([]string, 0, len(loopir.Library()))
	for name := range loopir.Library() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prog := loopir.Library()[name]
		p := mustCompile(t, prog, Options{})
		in, err := loopir.NewInstance(prog, instantiateParams[name])
		if err != nil {
			t.Fatal(err)
		}
		var parts []string
		for i, r := range KernelRegions(p) {
			ek, err := in.EmitRangeKernelGo(r.Var, r.Body, fmt.Sprintf("Kernel%d", i))
			parts = append(parts, fmt.Sprintf("%s=%s", r.Var, emitFingerprint(ek, err)))
		}
		ek, err := in.EmitKernelGo(prog.Body, "Kernel0")
		parts = append(parts, "whole="+emitFingerprint(ek, err))
		if got := strings.Join(parts, " "); got != want[name] {
			t.Errorf("%s:\n got %q\nwant %q", name, got, want[name])
		}
	}
}

// checkPanic matches one runtime bounds check's panic in emitted source,
// capturing its message.
var checkPanic = regexp.MustCompile(`panic\("((?:[^"\\]|\\.)*)"\)`)

// TestRuntimeChecksPinned lists, per library program at the
// instantiateParams sizes, every runtime bounds check its kernels keep:
// each region's (EmitRangeKernelGo) and the whole body's (EmitKernelGo).
// The VM runs the same compiled tree, so it keeps the same checks. Every
// subscript of the nine affine programs is proven; what is left is the
// data-dependent subscripts of spmv and pbin, each checked against its
// dimension, and each range kernel's distributed variable and each free
// variable, checked against its hull once per call.
func TestRuntimeChecksPinned(t *testing.T) {
	want := map[string]string{
		"axpy":            `variable "i" out of range [0,49]`,
		"jacobi":          `variable "i" out of range [1,10]; variable "i2" out of range [1,10]`,
		"jacobi-converge": `variable "i" out of range [1,10]; variable "i2" out of range [1,10]`,
		"jacobi3d":        `variable "i" out of range [1,6]; variable "i2" out of range [1,6]`,
		"lu":              `variable "j" out of range [1,11]; variable "k" out of range [0,11]`,
		"mm":              `variable "i" out of range [0,11]; variable "j" out of range [0,11]`,
		"pbin":            `access to "px" out of range [0,64) in dim 1; variable "i" out of range [0,47]`,
		"periodic-sor":    `variable "i" out of range [1,12]; variable "j" out of range [1,12]`,
		"sor":             `variable "i" out of range [1,12]; variable "j" out of range [1,12]`,
		"spmv":            `access to "ofs" out of range [0,64) in dim 1; access to "val" out of range [0,64) in dim 1; access to "x" out of range [0,96) in dim 0; variable "i" out of range [32,63]`,
		"threshold-relax": `variable "i" out of range [1,8]; variable "j" out of range [1,8]`,
	}
	for name, prog := range loopir.Library() {
		p := mustCompile(t, prog, Options{})
		in, err := loopir.NewInstance(prog, instantiateParams[name])
		if err != nil {
			t.Fatal(err)
		}
		var srcs []string
		for i, r := range KernelRegions(p) {
			ek, err := in.EmitRangeKernelGo(r.Var, r.Body, fmt.Sprintf("Kernel%d", i))
			if err != nil {
				t.Fatal(err)
			}
			srcs = append(srcs, ek.Src)
		}
		ek, err := in.EmitKernelGo(prog.Body, "Kernel0")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, m := range checkPanic.FindAllStringSubmatch(strings.Join(append(srcs, ek.Src), ""), -1) {
			msg, err := strconv.Unquote(`"` + m[1] + `"`)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, strings.TrimPrefix(msg, "dlbaot: "))
		}
		slices.Sort(got)
		got = slices.Compact(got)
		if s := strings.Join(got, "; "); s != want[name] {
			t.Errorf("%s keeps\n %s\nwant\n %s", name, s, want[name])
		}
	}
}
