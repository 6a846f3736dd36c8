package compile

import (
	"fmt"
	"hash/fnv"
	"sort"
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
// every library program under its LibraryDist directive, at the
// instantiateParams sizes: one FNV-64a hash per KernelRegions region
// (EmitRangeKernelGo) and one for the whole body (EmitKernelGo), or
// "refused" where the emitter refuses. The source spells out register
// names, site numbers and every flat offset, so the table moves if the
// kernel compiler's register assignment or site interning does; an edit
// here is a behaviour change.
func TestEmittedKernelsPinned(t *testing.T) {
	want := map[string]string{
		"axpy":            "i=daeccc8b795bdb5e whole=0adf24842f2e970d",
		"jacobi":          "i=610f14542669919d i2=d87a93a3af0084c8 whole=028dc50e7763d7cb",
		"jacobi-converge": "i=4df72b9f112d28eb i2=ab0355da64f8dd3b whole=47185bacbf8fdbe2",
		"jacobi3d":        "i=7a703d2afb53e900 i2=d56dfd5d3d98c4d6 whole=0c8c9d7bd751ea22",
		"lu":              "j=cf569821c5e8ff37 whole=81430a456eaf9b40",
		"mm":              "j=3af39b054f067d80 whole=71b957af8e05ce44",
		"pbin":            "i=430038d973ad0216 whole=5b8f728eb59c231d",
		"periodic-sor":    "j=1ca960ac1312cc21 whole=26a86de7b893e4ec",
		"sor":             "j=37d54b4d57130db3 whole=2fad32bb2d00400c",
		"spmv":            "i=d3f4237708254f31 whole=641846d84b8789e2",
		"threshold-relax": "j=787f238ec3ddc9d7 whole=2f863cd1e4ed08e6",
	}
	names := make([]string, 0, len(loopir.Library()))
	for name := range loopir.Library() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prog := loopir.Library()[name]
		p := mustCompile(t, prog, Options{Dist: LibraryDist(name)})
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
