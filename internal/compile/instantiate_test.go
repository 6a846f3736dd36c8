package compile

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/loopir"
)

// instantiateParams sizes each library program for the Instantiate pin:
// small, but with more than one strip block and more than one sweep.
var instantiateParams = map[string]map[string]int{
	"mm":              {"n": 12},
	"sor":             {"n": 14, "maxiter": 4},
	"lu":              {"n": 12},
	"jacobi":          {"n": 12, "maxiter": 3},
	"threshold-relax": {"n": 10, "maxiter": 3},
	"axpy":            {"n": 50, "maxiter": 4},
	"periodic-sor":    {"n": 14, "maxiter": 4},
	"jacobi-converge": {"n": 12, "maxiter": 60},
	"jacobi3d":        {"n": 8, "maxiter": 2},
	"spmv":            {"n": 96, "maxiter": 2},
	"pbin":            {"n": 48, "maxiter": 2},
}

// execFingerprint is everything Instantiate decides, with the float
// estimates as exact bits: the strip-mining grain, and with it virtual
// time, derives from FlopsPerUnit and TotalFlops.
func execFingerprint(e *Exec) string {
	h := fnv.New64a()
	var b [8]byte
	for _, ph := range e.Phases {
		for _, v := range []int{ph.ActiveLo, ph.ActiveHi, ph.UnitsBetween} {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("units=%d init=[%d,%d) level=%d phases=%d/%016x flops/unit=%016x total=%016x",
		e.Units, e.InitialLo, e.InitialHi, e.ActiveLevel, len(e.Phases), h.Sum64(),
		math.Float64bits(e.FlopsPerUnit), math.Float64bits(e.TotalFlops))
}

// TestInstantiatePinned pins Instantiate's whole output for every library
// program under its LibraryDist directive, at grain 1 and at a
// strip-mining grain of 3, under the default hook cost and under hooks so
// cheap that the deepest level fires (a strip-mined program's per-block
// hooks). The table was recorded before the phase schedule moved onto
// Plan.Run; an edit here is a behaviour change.
func TestInstantiatePinned(t *testing.T) {
	want := map[string]string{
		"axpy/grain=1/default":            "units=50 init=[0,50) level=0 phases=4/af6ede116d5193a5 flops/unit=4008000000000000 total=4082c00000000000",
		"axpy/grain=1/cheap":              "units=50 init=[0,50) level=0 phases=4/af6ede116d5193a5 flops/unit=4008000000000000 total=4082c00000000000",
		"axpy/grain=3/default":            "units=50 init=[0,50) level=0 phases=4/af6ede116d5193a5 flops/unit=4008000000000000 total=4082c00000000000",
		"axpy/grain=3/cheap":              "units=50 init=[0,50) level=0 phases=4/af6ede116d5193a5 flops/unit=4008000000000000 total=4082c00000000000",
		"jacobi/grain=1/default":          "units=12 init=[1,11) level=0 phases=3/502dea5b9aadccbb flops/unit=403e000000000000 total=409c200000000000",
		"jacobi/grain=1/cheap":            "units=12 init=[1,11) level=0 phases=3/502dea5b9aadccbb flops/unit=403e000000000000 total=409c200000000000",
		"jacobi/grain=3/default":          "units=12 init=[1,11) level=0 phases=3/502dea5b9aadccbb flops/unit=403e000000000000 total=409c200000000000",
		"jacobi/grain=3/cheap":            "units=12 init=[1,11) level=0 phases=3/502dea5b9aadccbb flops/unit=403e000000000000 total=409c200000000000",
		"jacobi-converge/grain=1/default": "units=12 init=[1,11) level=0 phases=60/5d78020655263ba5 flops/unit=404b800000000000 total=40f01d0000000000",
		"jacobi-converge/grain=1/cheap":   "units=12 init=[1,11) level=0 phases=60/5d78020655263ba5 flops/unit=404b800000000000 total=40f01d0000000000",
		"jacobi-converge/grain=3/default": "units=12 init=[1,11) level=0 phases=60/5d78020655263ba5 flops/unit=404b800000000000 total=40f01d0000000000",
		"jacobi-converge/grain=3/cheap":   "units=12 init=[1,11) level=0 phases=60/5d78020655263ba5 flops/unit=404b800000000000 total=40f01d0000000000",
		"jacobi3d/grain=1/default":        "units=8 init=[1,7) level=0 phases=2/cba7117bb0d93d65 flops/unit=4062000000000000 total=40ab000000000000",
		"jacobi3d/grain=1/cheap":          "units=8 init=[1,7) level=0 phases=2/cba7117bb0d93d65 flops/unit=4062000000000000 total=40ab000000000000",
		"jacobi3d/grain=3/default":        "units=8 init=[1,7) level=0 phases=2/cba7117bb0d93d65 flops/unit=4062000000000000 total=40ab000000000000",
		"jacobi3d/grain=3/cheap":          "units=8 init=[1,7) level=0 phases=2/cba7117bb0d93d65 flops/unit=4062000000000000 total=40ab000000000000",
		"lu/grain=1/default":              "units=12 init=[1,12) level=0 phases=12/8cbc665a535fbb29 flops/unit=4039000000000000 total=4099c80000000000",
		"lu/grain=1/cheap":                "units=12 init=[1,12) level=0 phases=12/8cbc665a535fbb29 flops/unit=4039000000000000 total=4099c80000000000",
		"lu/grain=3/default":              "units=12 init=[1,12) level=0 phases=12/8cbc665a535fbb29 flops/unit=4039000000000000 total=4099c80000000000",
		"lu/grain=3/cheap":                "units=12 init=[1,12) level=0 phases=12/8cbc665a535fbb29 flops/unit=4039000000000000 total=4099c80000000000",
		"mm/grain=1/default":              "units=12 init=[0,12) level=0 phases=12/15bacdee2c2d8fa5 flops/unit=4042000000000000 total=40b4400000000000",
		"mm/grain=1/cheap":                "units=12 init=[0,12) level=0 phases=12/15bacdee2c2d8fa5 flops/unit=4042000000000000 total=40b4400000000000",
		"mm/grain=3/default":              "units=12 init=[0,12) level=0 phases=12/15bacdee2c2d8fa5 flops/unit=4042000000000000 total=40b4400000000000",
		"mm/grain=3/cheap":                "units=12 init=[0,12) level=0 phases=12/15bacdee2c2d8fa5 flops/unit=4042000000000000 total=40b4400000000000",
		"pbin/grain=1/default":            "units=48 init=[0,48) level=0 phases=2/f483ba86958a72e5 flops/unit=3ff0000000000000 total=4058000000000000",
		"pbin/grain=1/cheap":              "units=48 init=[0,48) level=0 phases=2/f483ba86958a72e5 flops/unit=3ff0000000000000 total=4058000000000000",
		"pbin/grain=3/default":            "units=48 init=[0,48) level=0 phases=2/f483ba86958a72e5 flops/unit=3ff0000000000000 total=4058000000000000",
		"pbin/grain=3/cheap":              "units=48 init=[0,48) level=0 phases=2/f483ba86958a72e5 flops/unit=3ff0000000000000 total=4058000000000000",
		"periodic-sor/grain=1/default":    "units=14 init=[1,13) level=0 phases=4/0f1922566beae925 flops/unit=401cc71c71c71c72 total=40b0300000000000",
		"periodic-sor/grain=1/cheap":      "units=14 init=[1,13) level=1 phases=48/3061d739659d0f25 flops/unit=401cc71c71c71c72 total=40b0300000000000",
		"periodic-sor/grain=3/default":    "units=14 init=[1,13) level=0 phases=4/0f1922566beae925 flops/unit=401cc71c71c71c72 total=40b0300000000000",
		"periodic-sor/grain=3/cheap":      "units=14 init=[1,13) level=1 phases=16/d0740618efebaf25 flops/unit=401cc71c71c71c72 total=40b0300000000000",
		"sor/grain=1/default":             "units=14 init=[1,13) level=0 phases=4/0f1922566beae925 flops/unit=401c000000000000 total=40af800000000000",
		"sor/grain=1/cheap":               "units=14 init=[1,13) level=1 phases=48/3061d739659d0f25 flops/unit=401c000000000000 total=40af800000000000",
		"sor/grain=3/default":             "units=14 init=[1,13) level=0 phases=4/0f1922566beae925 flops/unit=401c000000000000 total=40af800000000000",
		"sor/grain=3/cheap":               "units=14 init=[1,13) level=1 phases=16/d0740618efebaf25 flops/unit=401c000000000000 total=40af800000000000",
		"spmv/grain=1/default":            "units=96 init=[32,64) level=0 phases=2/88a288bbbff28f65 flops/unit=3ff0000000000000 total=4050000000000000",
		"spmv/grain=1/cheap":              "units=96 init=[32,64) level=0 phases=2/88a288bbbff28f65 flops/unit=3ff0000000000000 total=4050000000000000",
		"spmv/grain=3/default":            "units=96 init=[32,64) level=0 phases=2/88a288bbbff28f65 flops/unit=3ff0000000000000 total=4050000000000000",
		"spmv/grain=3/cheap":              "units=96 init=[32,64) level=0 phases=2/88a288bbbff28f65 flops/unit=3ff0000000000000 total=4050000000000000",
		"threshold-relax/grain=1/default": "units=10 init=[1,9) level=0 phases=3/a945ececfb4938ad flops/unit=400c000000000000 total=4085000000000000",
		"threshold-relax/grain=1/cheap":   "units=10 init=[1,9) level=1 phases=24/494b8426fdc5a525 flops/unit=400c000000000000 total=4085000000000000",
		"threshold-relax/grain=3/default": "units=10 init=[1,9) level=0 phases=3/a945ececfb4938ad flops/unit=400c000000000000 total=4085000000000000",
		"threshold-relax/grain=3/cheap":   "units=10 init=[1,9) level=1 phases=9/8f88a5fd8a0d55fd flops/unit=400c000000000000 total=4085000000000000",
	}
	names := make([]string, 0, len(loopir.Library()))
	for name := range loopir.Library() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := mustCompile(t, loopir.Library()[name], Options{Dist: LibraryDist(name)})
		for _, grain := range []int{1, 3} {
			for _, hooks := range []string{"default", "cheap"} {
				opts := Options{}
				if hooks == "cheap" {
					opts = Options{HookCostFlops: 1, HookFraction: 0.5}
				}
				key := fmt.Sprintf("%s/grain=%d/%s", name, grain, hooks)
				e, err := p.Instantiate(instantiateParams[name], grain, opts)
				if err != nil {
					t.Errorf("%s: %v", key, err)
					continue
				}
				got := execFingerprint(e)
				if got != want[key] {
					t.Errorf("%s:\n got %s\nwant %s", key, got, want[key])
				}
			}
		}
	}
}
