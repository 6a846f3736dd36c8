package compile

import (
	"fmt"

	"repro/internal/loopir"
)

// walkHooks executes the loop structure of the plan with integers only
// (no data), invoking onOwned for every distributed-loop execution and
// onHook for every hook visit. grain is the strip-mining block size.
func (p *Plan) walkHooks(params map[string]int, grain int,
	onOwned func(lo, hi int, env map[string]int, body []loopir.Stmt),
	onOwner func(env map[string]int, body []loopir.Stmt),
	onHook func(h *Hook)) error {

	units, err := loopir.EvalIndex(p.UnitsExpr, params)
	if err != nil {
		return err
	}
	env := map[string]int{}
	for k, v := range params {
		env[k] = v
	}
	if grain < 1 {
		grain = 1
	}
	var walk func(steps []Step) error
	walk = func(steps []Step) error {
		for _, s := range steps {
			switch s := s.(type) {
			case *SeqLoop:
				lo, err := loopir.EvalIndex(s.Lo, env)
				if err != nil {
					return err
				}
				hi, err := loopir.EvalIndex(s.Hi, env)
				if err != nil {
					return err
				}
				for v := lo; v < hi; v++ {
					env[s.Var] = v
					if err := walk(s.Body); err != nil {
						return err
					}
				}
				delete(env, s.Var)
			case *StripLoop:
				lo, err := loopir.EvalIndex(s.Lo, env)
				if err != nil {
					return err
				}
				hi, err := loopir.EvalIndex(s.Hi, env)
				if err != nil {
					return err
				}
				for start := lo; start < hi; start += grain {
					end := start + grain
					if end > hi {
						end = hi
					}
					if err := walk(s.Pre); err != nil {
						return err
					}
					for v := start; v < end; v++ {
						env[s.Var] = v
						if err := walk(s.Body); err != nil {
							return err
						}
					}
					delete(env, s.Var)
					if err := walk(s.Post); err != nil {
						return err
					}
				}
			case *OwnedLoop:
				lo, err := loopir.EvalIndex(s.Lo, env)
				if err != nil {
					return err
				}
				hi, err := loopir.EvalIndex(s.Hi, env)
				if err != nil {
					return err
				}
				if lo < 0 {
					lo = 0
				}
				if hi > units {
					hi = units
				}
				if onOwned != nil {
					onOwned(lo, hi, env, s.Body)
				}
			case *OwnerBlock:
				if onOwner != nil {
					onOwner(env, s.Body)
				}
			case *Hook:
				if onHook != nil {
					onHook(s)
				}
			}
		}
		return nil
	}
	return walk(p.Steps)
}

// Instantiate binds the plan to concrete parameters and a strip-mining
// grain: it selects the active hook level by the 1% rule (§4.2) and builds
// the master's phase schedule mirroring the slave loop structure (§4.1).
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

	// Pass 1: total flops, total unit executions, hook visit counts per
	// level, and the hull of every distributed-loop range.
	visits := map[int]int{}
	totalFlops := 0.0
	totalUnitExecs := 0
	initLo, initHi := units, 0
	err = p.walkHooks(params, grain,
		func(lo, hi int, env map[string]int, body []loopir.Stmt) {
			initLo, initHi = min(initLo, lo), max(initHi, hi)
			n := hi - lo
			if n <= 0 {
				return
			}
			totalFlops += float64(n) * perUnitFlops(p, body, env, lo+n/2)
			totalUnitExecs += n
		},
		func(env map[string]int, body []loopir.Stmt) {
			totalFlops += loopir.EstFlops(body, env)
		},
		func(h *Hook) { visits[h.Level]++ })
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
	first := true
	err = p.walkHooks(params, grain,
		func(lo, hi int, env map[string]int, body []loopir.Stmt) {
			if hi > lo {
				unitsBetween += hi - lo
			}
			curLo, curHi = lo, hi
			if first {
				first = false
			}
		},
		nil,
		func(h *Hook) {
			if h.Level != active {
				return
			}
			phases = append(phases, PhaseMeta{
				ActiveLo:     curLo,
				ActiveHi:     curHi,
				UnitsBetween: unitsBetween,
			})
			unitsBetween = 0
		})
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
