package svc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/dlb"
	"repro/internal/lru"
)

// planEntry is one compiled, instantiated plan: everything a run reuses.
// Keeping the Prepared saves a resubmission its two instantiations and
// lets a preempted job resume under the very phase schedule its checkpoint
// was cut with. It is a memo for cost, not a pin: Prepare is a function of
// the plan, so a resubmission would hash identically without it.
type planEntry struct {
	plan *compile.Plan
	pre  *dlb.Prepared
}

// planCache is the service's two memo levels. compiled holds one plan per
// program text and directive — Compile reads no run parameter, so every
// size and slave count of a program shares it. prepared holds what does
// depend on the run: the plan instantiated at (params, slaves, tier) with
// its grain. Both synchronize themselves and compute once per key,
// so lookups run outside the Service's mutex.
type planCache struct {
	compiled *compile.Cache
	prepared *lru.Memo[string, *planEntry]
}

// planCacheEntries bounds each level. Entries hold no array data.
const planCacheEntries = 16

func newPlanCache() *planCache {
	return &planCache{
		compiled: compile.NewCache(planCacheEntries),
		prepared: lru.NewMemo[string, *planEntry](planCacheEntries),
	}
}

// specKey fingerprints everything that determines the compiled plan and
// its instantiation.
func specKey(spec JobSpec) string {
	h := sha256.New()
	io.WriteString(h, "svc-plan-v1\n")
	io.WriteString(h, spec.Program)
	io.WriteString(h, "\x00")
	keys := make([]string, 0, len(spec.Params))
	for k := range spec.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, spec.Params[k])
	}
	dims := make([]string, 0, len(spec.DistDims))
	for k := range spec.DistDims {
		dims = append(dims, k)
	}
	sort.Strings(dims)
	for _, k := range dims {
		fmt.Fprintf(h, "dim %s:%d\n", k, spec.DistDims[k])
	}
	for _, l := range spec.DistLoops {
		fmt.Fprintf(h, "loop %s\n", l)
	}
	fmt.Fprintf(h, "slaves=%d sync=%v kernel=%s costmodel=%s\n", spec.Slaves, spec.Synchronous, spec.Kernel, spec.CostModel)
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// lookup compiles and instantiates spec (or returns the cached entry).
// cfgFor builds the run Config the plan is instantiated under.
func (c *planCache) lookup(spec JobSpec, cfgFor func(*compile.Plan) dlb.Config) (*planEntry, error) {
	e, _, err := c.prepared.Do(specKey(spec), func() (*planEntry, error) {
		plan, _, err := c.compiled.Compile(spec.Program, compile.Options{
			Dist: depend.DistSpec{Dims: spec.DistDims, Loops: spec.DistLoops},
		})
		if err != nil {
			return nil, fmt.Errorf("svc: %w", err)
		}
		pre, err := dlb.Prepare(cfgFor(plan), spec.Slaves)
		if err != nil {
			return nil, fmt.Errorf("svc: instantiating plan: %w", err)
		}
		return &planEntry{plan: plan, pre: pre}, nil
	})
	return e, err
}
