package dlb

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/aot"
	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/loopir"
	"repro/internal/testutil/leak"
)

// TestKernelTierDifferential runs every library program on both kernel
// tiers: they must produce bit-identical arrays (runAndVerify already pins
// each run to the sequential reference; the cross-tier comparison below
// additionally pins reduction arrays — jacobi-converge's replicated
// residual — which runAndVerify only bounds), and the aot runs must
// actually dispatch to native kernels. The interp leg holds that
// sequential reference, the VM's whole-program run, to the tree
// interpreter bit for bit, so every tier answers to the oracle.
func TestKernelTierDifferential(t *testing.T) {
	plans := overlapPlans(t) // every library program under its directive
	var names []string
	for name := range plans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		plan, params := plans[name], overlapParams[name]
		t.Run(name+"/interp", func(t *testing.T) {
			oracle, err := loopir.NewInstance(plan.Prog, params)
			if err != nil {
				t.Fatal(err)
			}
			vm, err := loopir.NewInstance(plan.Prog, params)
			if err != nil {
				t.Fatal(err)
			}
			if err := oracle.Interpret(); err != nil {
				t.Fatal(err)
			}
			if err := vm.Run(); err != nil {
				t.Fatal(err)
			}
			for arr, want := range oracle.Arrays {
				if d := want.MaxAbsDiff(vm.Arrays[arr]); d != 0 {
					t.Errorf("array %q: the VM's sequential run differs from Interpret by %g", arr, d)
				}
			}
		})
		var base map[string]*loopir.Array
		for _, tier := range []string{KernelVM, KernelAOT} {
			t.Run(name+"/"+tier, func(t *testing.T) {
				res := runAndVerify(t, plan, params,
					Config{DLB: true, Kernel: tier},
					cluster.Config{Slaves: 3})
				if tier == KernelAOT {
					if res.AotInfo == nil {
						t.Fatal("aot run has no AotInfo")
					}
					if res.Counters.Get("aot_units") == 0 {
						t.Errorf("aot tier never dispatched natively: %v", res.Counters)
					}
				}
				if base == nil {
					base = res.Final
					return
				}
				for name, want := range base {
					got := res.Final[name]
					if got == nil {
						t.Fatalf("array %q missing", name)
					}
					if d := want.MaxAbsDiff(got); d != 0 {
						t.Errorf("array %q differs across tiers by %g", name, d)
					}
				}
			})
		}
	}
}

// scaffoldNamesSrc names its loop variables after the emitted kernels'
// own locals: a window (w0), the window counter (x), an offset (o1), a
// trip count (t2) and the check temporary (e).
const scaffoldNamesSrc = `program scaffold(n, maxiter)
array a[n][n] init hash(7);
array b[n][n];
for t2 = 0 to maxiter {
    for o1 = 1 to (n - 1) {
        for w0 = 1 to (n - 1) {
            b[o1][w0] = (0.25 * ((a[(o1 - 1)][w0] + a[(o1 + 1)][w0]) + (a[o1][(w0 - 1)] + a[o1][(w0 + 1)])));
        }
    }
    for x = 1 to (n - 1) {
        for e = 1 to (n - 1) {
            a[x][e] = b[x][e];
        }
    }
}
`

// TestScaffoldingNamesDoNotCapture: loop variables named like the emitted
// scaffolding are renamed, so the program emits, builds, runs natively and
// gathers arrays bit-identical to the tree interpreter's.
func TestScaffoldingNamesDoNotCapture(t *testing.T) {
	prog := mustParse(t, scaffoldNamesSrc)
	plan, err := compile.Compile(prog, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int{"n": 20, "maxiter": 3}
	res, err := Run(Config{Plan: plan, Params: params, DLB: true, Kernel: KernelAOT}, cluster.Config{Slaves: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get("aot_units") == 0 {
		t.Fatalf("no unit ran natively: %v", res.Counters)
	}
	ref, err := loopir.NewInstance(prog, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Interpret(); err != nil {
		t.Fatal(err)
	}
	for name, want := range ref.Arrays {
		got := res.Final[name]
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("array %q differs at %d: %v, the interpreter %v", name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestEveryLibraryPlanLowers: every compute step of every library plan
// lowers on both tiers the way a slave lowers it, indirect (IArr) bodies
// included. Each distributed loop runs on the VM's range kernel on the
// kernel tier and on a bound native kernel on the aot tier; owner blocks
// and replicated statements compile to VM kernels on both.
func TestEveryLibraryPlanLowers(t *testing.T) {
	for name, plan := range overlapPlans(t) {
		params := overlapParams[name]
		native, err := buildAOT(plan, params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, tier := range []string{KernelVM, KernelAOT} {
			inst, err := loopir.NewInstance(plan.Prog, params)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			s := &slave{inst: inst, exec: &compile.Exec{Plan: plan}}
			if tier == KernelAOT {
				s.aot = native
			}
			if err := s.lowerPlan(); err != nil {
				t.Fatalf("%s on %s: %v", name, tier, err)
			}
			loops := 0
			for _, l := range s.frame.Leaves {
				st, owned := l.Step.(*compile.OwnedLoop)
				if !owned {
					continue
				}
				loops++
				ox := s.execs[l.ID]
				var ok bool
				if tier == KernelAOT {
					_, ok = ox.run.(*aot.BoundKernel)
				} else {
					_, ok = ox.run.(*loopir.RangeKernel)
				}
				if !ok {
					t.Errorf("%s on %s: distributed loop %q runs on %T", name, tier, st.Var, ox.run)
				}
			}
			if loops == 0 {
				t.Errorf("%s: plan has no distributed loop", name)
			}
		}
	}
}

// TestAOTUnavailableFailsBeforeSpawn: on a host whose Go toolchain cannot
// run, asking for the aot tier is an error that names the remedy — raised
// while the run is assembled, so nothing was spawned and nothing waits —
// never a quietly slower executor.
func TestAOTUnavailableFailsBeforeSpawn(t *testing.T) {
	empty := t.TempDir()
	t.Setenv("PATH", empty)
	t.Setenv("GOROOT", empty)
	t.Setenv("DLB_AOT_CACHE", t.TempDir())
	defer aot.ClearMemory() // do not leave the memoised failure behind
	plan := planFor(t, "jacobi")
	cfg := Config{Plan: plan, Params: map[string]int{"n": 20, "maxiter": 2}, DLB: true, Kernel: KernelAOT}
	pre := mustPrepare(t, cfg, 2)
	before := runtime.NumGoroutine()
	entries := map[string]func() error{
		"Run":        func() error { _, err := Run(cfg, cluster.Config{Slaves: 2}); return err },
		"RunReal":    func() error { _, err := RunReal(cfg, 2); return err },
		"RunSlaveOn": func() error { return RunSlaveOn(newLocalNet(2).endpoint(0, 1), cfg, 0, 2, pre) },
	}
	for entry, call := range entries {
		errc := make(chan error, 1)
		go func() { errc <- call() }()
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), "-kernel kernel") {
				t.Errorf("%s: got %v, want an error naming -kernel kernel", entry, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no answer in 10 s (something was spawned and is waiting)", entry)
		}
	}
	leak.Settle(t, before) // a failed aot build left nothing running
}
