package dlb

import (
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/aot"
	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/loopir"
)

// aboveGate sizes the matrix product the schedule tests run: 98 Mflop
// against the gate's 78, so it goes native, and small enough that the VM
// runs the tests compare against stay short (even under the race detector).
var aboveGate = map[string]int{"n": 320}

// vmReference is the aboveGate run simulated on the VM pin on two slaves,
// the schedule and arrays every unpinned run of it must reproduce;
// computed once.
var vmReference = sync.OnceValues(func() (*Result, error) {
	plan, err := compile.Compile(loopir.Library()["mm"], compile.Options{})
	if err != nil {
		return nil, err
	}
	return Run(Config{Plan: plan, Params: aboveGate, DLB: true, Kernel: KernelVM}, cluster.Config{Slaves: 2})
})

func mmReference(t *testing.T) *Result {
	t.Helper()
	res, err := vmReference()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameBits fails unless got holds every array of want, bit for bit.
func sameBits(t *testing.T, label string, want, got map[string]*loopir.Array) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if g == nil {
			t.Fatalf("%s: array %q missing", label, name)
		}
		for i := range w.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
				t.Fatalf("%s: array %q differs at %d: %v, want %v", label, name, i, g.Data[i], w.Data[i])
			}
		}
	}
}

// TestTierGate: with Kernel "" the tier is decided by one division before
// anything is emitted. real_mm_drag's matrix product goes native; every
// job shape of the service mix stays on the VM and leaves the AOT cache
// untouched; and a host that cannot build runs an unpinned plan on the VM,
// bit-exact and without an error, while the aot pin still refuses it with
// the remedy.
func TestTierGate(t *testing.T) {
	t.Run("real_mm_drag goes native", func(t *testing.T) {
		// The benchmark's program, size and slave count.
		cfg := Config{Plan: planFor(t, "mm"), Params: map[string]int{"n": 384}, DLB: true}
		pre := mustPrepare(t, cfg, 2)
		tier, b, err := resolveTier(&cfg, pre)
		if err != nil || tier != KernelAOT || b == nil {
			t.Fatalf("resolveTier = %q, %v, %v; want aot with kernels (predicted VM %.3g s)",
				tier, b, err, pre.Exec.TotalFlops/vmRate)
		}
	})

	t.Run("the threshold's neighbours", func(t *testing.T) {
		// sim_sor_wave's sor and the lifecycle tests' mm at n=256 time
		// their runs on the VM; mm at n=320 is aboveGate.
		for _, c := range []struct {
			prog   string
			params map[string]int
			native bool
		}{
			{"mm", aboveGate, true},
			{"mm", map[string]int{"n": 256}, false},
			{"sor", map[string]int{"n": 512, "maxiter": 24}, false},
		} {
			exec, err := planFor(t, c.prog).InstantiateHook(c.params, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := nativePays(exec.TotalFlops); got != c.native {
				t.Errorf("%s %v (%.3g flops): native = %v, want %v", c.prog, c.params, exec.TotalFlops, got, c.native)
			}
		}
	})

	t.Run("svc_mix jobs stay on the VM", func(t *testing.T) {
		cache := t.TempDir()
		t.Setenv("DLB_AOT_CACHE", cache)
		jobs := []struct {
			prog           string
			n, maxiter, sl int
		}{{"mm", 96, 0, 1}, {"lu", 160, 0, 2}, {"mm", 128, 0, 2}, {"sor", 128, 12, 1}}
		for _, j := range jobs {
			for _, n := range []int{j.n, j.n + 7} {
				params := map[string]int{"n": n}
				if j.maxiter > 0 {
					params["maxiter"] = j.maxiter
				}
				cfg := Config{Plan: planFor(t, j.prog), Params: params, DLB: true}
				pre := mustPrepare(t, cfg, j.sl)
				if tier, b, err := resolveTier(&cfg, pre); err != nil || tier != KernelVM || b != nil {
					t.Errorf("%s %v: resolveTier = %q, %v, %v; want the VM", j.prog, params, tier, b, err)
				}
			}
		}
		if ents, err := os.ReadDir(cache); err != nil || len(ents) != 0 {
			t.Errorf("the gate refused every job, yet the AOT cache holds %d entries (%v)", len(ents), err)
		}
	})

	t.Run("a failed build falls back unless pinned", func(t *testing.T) {
		ref := mmReference(t)
		empty := t.TempDir()
		t.Setenv("PATH", empty)
		t.Setenv("GOROOT", empty)
		t.Setenv("DLB_AOT_CACHE", t.TempDir())
		aot.ClearMemory()
		defer aot.ClearMemory() // do not leave the memoised failure behind

		cfg := Config{Plan: planFor(t, "mm"), Params: aboveGate, DLB: true}
		res, err := Run(cfg, cluster.Config{Slaves: 2})
		if err != nil {
			t.Fatalf("unpinned run on a host that cannot build: %v", err)
		}
		if n := res.Counters.Get("aot_units"); n != 0 || res.AotInfo != nil {
			t.Errorf("aot_units = %d, AotInfo = %v; want 0 and nil", n, res.AotInfo)
		}
		if got, want := fingerprintOf(res), fingerprintOf(ref); got != want {
			t.Errorf("fallback schedule %+v, VM pin %+v", got, want)
		}
		sameBits(t, "fallback vs VM pin", ref.Final, res.Final)

		pre := mustPrepare(t, cfg, 2)
		if err := pre.LoadNative(cfg); err != nil || pre.tier != KernelVM {
			t.Errorf("daemon handshake, unpinned: tier %q, err %v; want the VM and no error", pre.tier, err)
		}

		cfg.Kernel = KernelAOT
		if _, err := Run(cfg, cluster.Config{Slaves: 2}); err == nil || !strings.Contains(err.Error(), "-kernel kernel") {
			t.Errorf("aot pin: got %v, want the error naming -kernel kernel", err)
		}
		pre = mustPrepare(t, cfg, 2)
		if err := pre.LoadNative(cfg); err == nil || !strings.Contains(err.Error(), "-kernel kernel") {
			t.Errorf("daemon handshake, aot pin: got %v, want the error naming -kernel kernel", err)
		}
	})
}

// TestTierGateKeepsSchedule: the gate changes wall time only. An unpinned
// simulated run above the threshold dispatches natively and reproduces the
// VM pin's schedule fingerprint and arrays; under RunReal, whose schedule
// is timing-dependent, it gathers the same arrays bit for bit.
func TestTierGateKeepsSchedule(t *testing.T) {
	ref := mmReference(t)
	cfg := Config{Plan: planFor(t, "mm"), Params: aboveGate, DLB: true}

	res, err := Run(cfg, cluster.Config{Slaves: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get("aot_units") == 0 {
		t.Fatalf("unpinned run above the gate never dispatched natively: %v", res.Counters)
	}
	if got, want := fingerprintOf(res), fingerprintOf(ref); got != want {
		t.Errorf("unpinned schedule %+v, VM pin %+v", got, want)
	}
	sameBits(t, "simulated, unpinned vs VM pin", ref.Final, res.Final)

	wall, err := RunReal(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wall.Counters.Get("aot_units") == 0 {
		t.Fatalf("unpinned RunReal above the gate never dispatched natively: %v", wall.Counters)
	}
	sameBits(t, "RunReal, unpinned vs VM pin", ref.Final, wall.Final)
}
