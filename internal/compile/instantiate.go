package compile

import (
	"fmt"

	"repro/internal/loopir"
)

// Instantiate binds the plan to concrete parameters and a strip-mining
// grain: it selects the active hook level by the 1% rule (§4.2) and builds
// the master's phase schedule by running the slave loop structure (§4.1)
// with integers only — Run with no data and no break conditions.
// opts are the options the plan was compiled with (hook cost model); pass
// the zero value for defaults.
func (p *Plan) Instantiate(params map[string]int, grain int, opts Options) (*Exec, error) {
	opts = opts.withDefaults()
	units, err := loopir.EvalIndex(p.UnitsExpr, params)
	if err != nil {
		return nil, err
	}
	if units <= 0 {
		return nil, fmt.Errorf("compile: distributed dimension has extent %d", units)
	}
	env := map[string]int{}
	for k, v := range params {
		env[k] = v
	}

	// Pass 1: total flops, total unit executions, hook visit counts per
	// level, and the hull of every distributed-loop range.
	visits := map[int]int{}
	totalFlops := 0.0
	totalUnitExecs := 0
	initLo, initHi := units, 0
	err = p.Run(env, grain, func(s Step, _, _ int) error {
		switch s := s.(type) {
		case *OwnedLoop:
			lo, hi, err := s.Range(env, units)
			if err != nil {
				return err
			}
			initLo, initHi = min(initLo, lo), max(initHi, hi)
			if n := hi - lo; n > 0 {
				totalFlops += float64(n) * perUnitFlops(p, s.Body, env, lo+n/2)
				totalUnitExecs += n
			}
		case *OwnerBlock:
			totalFlops += loopir.EstFlops(s.Body, env)
		case *Hook:
			visits[s.Level]++
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	if totalUnitExecs == 0 {
		return nil, fmt.Errorf("compile: no distributed work for params %v", params)
	}

	// Choose the deepest hook level whose per-visit work keeps hook cost
	// under the fraction; fall back to the outermost level.
	minWork := opts.HookCostFlops / opts.HookFraction
	active := -1
	for level, n := range visits {
		if n == 0 {
			continue
		}
		if totalFlops/float64(n) >= minWork {
			if level > active {
				active = level
			}
		}
	}
	if active == -1 {
		for level, n := range visits {
			if n > 0 && (active == -1 || level < active) {
				active = level
			}
		}
	}
	if active == -1 {
		return nil, fmt.Errorf("compile: no hook sites visited")
	}

	// Pass 2: phase schedule at the active level.
	var phases []PhaseMeta
	unitsBetween := 0
	curLo, curHi := 0, units
	err = p.Run(env, grain, func(s Step, _, _ int) error {
		switch s := s.(type) {
		case *OwnedLoop:
			lo, hi, err := s.Range(env, units)
			if err != nil {
				return err
			}
			unitsBetween += max(hi-lo, 0)
			curLo, curHi = lo, hi
		case *Hook:
			if s.Level == active {
				phases = append(phases, PhaseMeta{ActiveLo: curLo, ActiveHi: curHi, UnitsBetween: unitsBetween})
				unitsBetween = 0
			}
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("compile: active hook level %d never fires", active)
	}

	return &Exec{
		Plan:         p,
		Params:       params,
		Units:        units,
		InitialLo:    initLo,
		InitialHi:    initHi,
		ActiveLevel:  active,
		Phases:       phases,
		FlopsPerUnit: totalFlops / float64(totalUnitExecs),
		TotalFlops:   totalFlops,
	}, nil
}

// perUnitFlops estimates the flops of one distributed-loop iteration with
// the distributed variable at mid.
func perUnitFlops(p *Plan, body []loopir.Stmt, env map[string]int, mid int) float64 {
	local := map[string]int{}
	for k, v := range env {
		local[k] = v
	}
	for _, l := range p.Dist.Loops {
		local[l] = mid
	}
	return loopir.EstFlops(body, local)
}
