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

// LoadNative builds (or cache-loads) the native kernels when cfg resolves
// to the aot tier, and does nothing on the other tiers. A daemon calls it
// before it answers the handshake, so a host that cannot build or open a
// plugin refuses the run with the reason and the remedy instead of
// dropping out of a run that already counted it in; RunSlaveOn then runs on
// the kernels p carries.
func (p *Prepared) LoadNative(cfg Config) error {
	tier, err := cfg.KernelTier()
	if err != nil || tier != KernelAOT {
		return err
	}
	p.native, err = buildAOT(cfg.Plan, cfg.Params)
	return err
}

// kernelFor returns the loaded kernel for a distributed-loop step, or nil
// when the emitter refused the region (the caller falls back a tier).
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
