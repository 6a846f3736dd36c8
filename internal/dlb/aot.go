package dlb

import (
	"fmt"

	"repro/internal/aot"
	"repro/internal/compile"
)

// aotBundle is a plan's built native kernels plus the region table that
// maps each OwnedLoop step to its kernel index. The bundle is built once
// per run — before any cooperative slave process spawns, so the toolchain
// subprocess never blocks the virtual-time scheduler — and shared
// read-only by every slave, which binds the kernels to its own arrays.
type aotBundle struct {
	prog    *aot.Program
	regions []*compile.OwnedLoop
}

// buildAOT emits, builds (or cache-loads) and wraps the native kernels
// for every distributed loop of the plan.
func buildAOT(plan *compile.Plan, params map[string]int) (*aotBundle, error) {
	regions := compile.KernelRegions(plan)
	if len(regions) == 0 {
		return nil, fmt.Errorf("dlb: plan %s has no distributed loop to compile", plan.Prog.Name)
	}
	spec := aot.Spec{Prog: plan.Prog, Params: params}
	for _, r := range regions {
		spec.Regions = append(spec.Regions, aot.Region{DistVar: r.Var, Body: r.Body})
	}
	prog, err := aot.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("dlb: aot build: %w", err)
	}
	return &aotBundle{prog: prog, regions: regions}, nil
}

// The tier gate: a run whose Kernel is "" goes native iff its predicted
// VM time, Exec.TotalFlops ÷ vmRate, is at least nativePayback ×
// coldBuild seconds — the paper's profitability rule (§3.2: cancel a move
// whose cost exceeds its benefit) applied to compilation. It is one
// division, taken before anything is emitted, so a run it refuses emits,
// hashes and probes nothing; it has no warm-cache branch, so what the
// cache holds never changes a run's tier; and, with every term a
// constant, the tier is a function of the plan: every process of a run,
// and every run of a plan, decides alike.
const (
	// coldBuild is a cold native build in seconds: probe ≈ 53 ms, compile
	// ≈ 12 ms and link ≈ 191 ms for mm at n=384 on a 2-CPU x86-64 host
	// with go1.24, where the benchmark's aot.build_cold_ms reads 0.22–0.26 s.
	coldBuild = 0.26
	// vmRate is the VM's scalar rate in flops per second on that host,
	// where sor's sweep, before it ran as carried strips, read 104–159
	// MFLOP/s in fresh processes. It is the one rate every wall-clock plan
	// decision reads — this gate, the strip grain (Prepare) and the hook
	// cost (wallHookCostFlops) — and it is not measured per run: a
	// per-process reading is bimodal (≈ 88 or ≈ 148 MFLOP/s back to back),
	// so it sent sor at n=512, maxiter 24 native in 2 of 5 processes of
	// the same benchmark run and gave each process its own grain; and a
	// build slows with its host as the VM does. A nest whose innermost
	// loop runs a strip at a time (mm, lu, the Jacobi family, and sor's
	// carried strips) runs 2–8× faster than this, so on those the gate
	// errs toward native, which costs at most one build.
	vmRate = 150e6
	// nativePayback is k, the margin the saving must clear: the predicted
	// VM time must cover the cold build twice, a threshold of 78 Mflop.
	// mm at n=384 (170 Mflop: ≈ 1.1 s predicted, ≈ 1.5 s measured
	// sequentially) goes native; mm at n=256 (50 Mflop), sor at n=512,
	// maxiter 24 (44 Mflop) and the service's short jobs (mm, lu and sor
	// at n ≤ 167: ≤ 7.4 Mflop) stay on the VM.
	nativePayback = 2
)

// nativePays is the gate's rule for a plan of the given predicted flops.
func nativePays(flops float64) bool {
	return flops/vmRate >= nativePayback*coldBuild
}

// resolveTier settles the tier the run's slaves execute on, once the plan
// is instantiated: a pin stays a pin, and "" goes native where it pays
// (nativePays), else stays on the VM. On the aot tier it returns the
// native kernels — pre's when a daemon's handshake already loaded them,
// else built (or cache-loaded) here, before any slave spawns, because the
// toolchain must not run inside the virtual-time scheduler. A failed
// build or plugin open is the aot pin's error; under "" the run falls back
// to the VM, and aot_units = 0 says so.
func resolveTier(cfg *Config, pre *Prepared) (string, *aotBundle, error) {
	if pre.tier != "" {
		return pre.tier, pre.native, nil
	}
	tier, err := cfg.KernelTier()
	switch {
	case err != nil:
		return "", nil, err
	case tier == "" && !nativePays(pre.Exec.TotalFlops):
		return KernelVM, nil, nil
	case tier != "" && tier != KernelAOT:
		return tier, nil, nil
	}
	b, err := buildAOT(cfg.Plan, cfg.Params)
	switch {
	case err == nil:
		return KernelAOT, b, nil
	case tier == KernelAOT:
		return "", nil, err
	}
	return KernelVM, nil, nil
}

// LoadNative resolves the tier the way every run does (resolveTier) and
// keeps the answer, with the native kernels when it is aot. A daemon calls
// it before it answers the handshake, so a host that cannot build or open
// a plugin refuses an aot-pinned run with the reason and the remedy
// instead of dropping out of a run that already counted it in;
// RunSlaveOn then runs on the tier and kernels p carries.
func (p *Prepared) LoadNative(cfg Config) (err error) {
	p.tier, p.native, err = resolveTier(&cfg, p)
	return err
}

// kernelFor returns the loaded kernel for a distributed-loop step, or nil
// off the aot tier.
func (b *aotBundle) kernelFor(st *compile.OwnedLoop) *aot.Kernel {
	if b == nil {
		return nil
	}
	for i, r := range b.regions {
		if r == st {
			return b.prog.Kernels[i]
		}
	}
	return nil
}
