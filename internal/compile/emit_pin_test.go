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
		"axpy":            "i=01e4754ede7fee79 whole=501a32f84573ab08",
		"jacobi":          "i=c1d017b4ca717690 i2=b5dd9cd553127a2f whole=9d80b383b7ac2e94",
		"jacobi-converge": "i=c019395f34866792 i2=bf15425d946afde0 whole=63e5c834e9b6269c",
		"jacobi3d":        "i=821f184cdf9bbd79 i2=ee02cd24bfbfcf20 whole=ffe082c0cb7497be",
		"lu":              "j=1cd5433181540651 whole=42d88dac1918b65b",
		"mm":              "j=4ceaa5e0ddee9917 whole=d3faba6173ed9bae",
		"pbin":            "i=refused whole=refused",
		"periodic-sor":    "j=caa3fb5b06077d9b whole=81d066448d132d67",
		"sor":             "j=2554d10fcfd64465 whole=34f91677d0c5a119",
		"spmv":            "i=refused whole=refused",
		"threshold-relax": "j=c717bb8b8cbc595a whole=641e83d8d10c3a07",
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
