package dlb

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/aot"
	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/loopir"
)

// TestKernelTierDifferential runs every library program under every
// kernel tier that accepts it: the tiers must produce bit-identical
// arrays (runAndVerify already pins each run to the sequential reference;
// the cross-tier comparison below additionally pins reduction arrays —
// jacobi-converge's replicated residual — which runAndVerify only bounds).
// The aot runs must actually dispatch to native kernels, and the interp
// runs must never touch the VM kernels. The aot tier refuses the indirect
// programs (spmv, pbin: no emittable region), so they run on two tiers.
func TestKernelTierDifferential(t *testing.T) {
	plans := overlapPlans(t) // every library program under its directive
	var names []string
	for name := range plans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		plan, params := plans[name], overlapParams[name]
		tiers := []string{KernelInterp, KernelVM, KernelAOT}
		if loopir.UsesIArr(plan.Prog.Body) {
			tiers = tiers[:2]
		}
		var base map[string]*loopir.Array
		for _, tier := range tiers {
			t.Run(name+"/"+tier, func(t *testing.T) {
				res := runAndVerify(t, plan, params,
					Config{DLB: true, Kernel: tier},
					cluster.Config{Slaves: 3})
				switch tier {
				case KernelInterp:
					if res.Counters.Get("kernel_units")+res.Counters.Get("aot_units") != 0 {
						t.Errorf("interp tier dispatched to kernels: %v", res.Counters)
					}
				case KernelAOT:
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

// TestNoSilentInterpreterFallback: an affine body the kernel compiler
// refused would drop to the tree interpreter — an order of magnitude slower
// and still bit-correct, so no differential would notice. Lower every
// library program's plan the way a kernel-tier slave does and require that
// the only steps left on the interpreter are the indirect (IArr) bodies of
// spmv and pbin.
func TestNoSilentInterpreterFallback(t *testing.T) {
	interpreted := map[string]bool{}
	for name := range loopir.Library() {
		plan := planFor(t, name)
		params := map[string]int{}
		for _, prm := range plan.Prog.Params {
			params[prm] = 16
			if strings.Contains(prm, "iter") {
				params[prm] = 2
			}
		}
		inst, err := loopir.NewInstance(plan.Prog, params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := &slave{inst: inst, exec: &compile.Exec{Plan: plan}}
		s.lowerPlan()
		check := func(kind string, compiled bool, body []loopir.Stmt) {
			switch {
			case compiled:
			case loopir.UsesIArr(body):
				interpreted[name] = true
			default:
				var sb strings.Builder
				loopir.RenderStmts(&sb, body, 1)
				t.Errorf("%s: affine %s body runs on the interpreter:\n%s", name, kind, sb.String())
			}
		}
		for st, ox := range s.ownedLoops {
			_, interp := ox.run.(*interpRange)
			check("owned-loop", !interp, st.Body)
		}
		for st, f := range s.ownerFrags {
			_, ok := f.(*loopir.Kernel)
			check("owner-block", ok, st.Body)
		}
		for st, f := range s.allFrags {
			_, ok := f.(*loopir.Kernel)
			check("replicated", ok, st.Body)
		}
		if len(s.ownedLoops) == 0 {
			t.Errorf("%s: plan has no distributed loop", name)
		}
	}
	if want := map[string]bool{"spmv": true, "pbin": true}; !reflect.DeepEqual(interpreted, want) {
		t.Errorf("programs with interpreted steps = %v, want %v", interpreted, want)
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
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d -> %d: a failed aot build left something running", before, after)
	}
}
