package compile

import (
	"fmt"

	"repro/internal/loopir"
)

// Instantiate is InstantiateHook at the default hook cost. It does not
// read its Options; it keeps the signature the benchmark harness calls.
func (p *Plan) Instantiate(params map[string]int, grain int, _ Options) (*Exec, error) {
	return p.InstantiateHook(params, grain, 0)
}

// InstantiateHook binds the plan to concrete parameters and a strip-mining
// grain: it selects the active hook level by the 1% rule (§4.2) and builds
// the master's phase schedule by running the slave loop structure (§4.1)
// with integers only — Run with no data and no break conditions.
// hookFlops is the cost of one hook visit in flops (0: 200); the runtime
// passes its clock's (dlb.instantiate).
func (p *Plan) InstantiateHook(params map[string]int, grain int, hookFlops float64) (*Exec, error) {
	if hookFlops <= 0 {
		hookFlops = 200
	}
	units, err := loopir.EvalIndex(p.UnitsExpr, params)
	if err != nil {
		return nil, err
	}
	if units <= 0 {
		return nil, fmt.Errorf("compile: distributed dimension has extent %d", units)
	}
	f, err := p.Lower(loopir.Frame{}, params, nil)
	if err != nil {
		return nil, err
	}

	// Pass 1: total flops, total unit executions, hook visit counts per
	// level, and the hull of every distributed-loop range.
	visits := map[int]int{}
	totalFlops := 0.0
	totalUnitExecs := 0
	initLo, initHi := units, 0
	err = p.Run(f, grain, func(l *Node, _, _ int) error {
		switch s := l.Step.(type) {
		case *OwnedLoop:
			lo, hi := l.Range(f.Slots, units)
			// Range clamps to the units; an iteration it drops has no owner.
			if rlo, rhi := at(l.Lo, f.Slots), at(l.Hi, f.Slots); rlo < rhi && (rlo != lo || rhi != hi) {
				return fmt.Errorf("compile: distributed loop %q runs [%d, %d), past the distributed extent %d", s.Var, rlo, rhi, units)
			}
			initLo, initHi = min(initLo, lo), max(initHi, hi)
			if n := hi - lo; n > 0 {
				totalFlops += float64(n) * l.PerUnit(f.Slots, lo+n/2)
				totalUnitExecs += n
			}
		case *OwnerBlock:
			totalFlops += l.Cost(f.Slots)
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
	minWork := hookFlops / hookFraction
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
	// A phase retires, for good, the units outside its active range, so no
	// later distributed loop may run one (§4.7 assumes ranges that shrink).
	var phases []PhaseMeta
	unitsBetween := 0
	curLo, curHi := 0, units
	liveLo, liveHi := 0, units
	err = p.Run(f, grain, func(l *Node, _, _ int) error {
		switch s := l.Step.(type) {
		case *OwnedLoop:
			lo, hi := l.Range(f.Slots, units)
			if lo < hi && (lo < liveLo || hi > liveHi) {
				return fmt.Errorf("compile: distributed loop %q runs [%d, %d) after a hook retired the units outside [%d, %d)", s.Var, lo, hi, liveLo, liveHi)
			}
			unitsBetween += max(hi-lo, 0)
			curLo, curHi = lo, hi
		case *Hook:
			if s.Level == active {
				phases = append(phases, PhaseMeta{ActiveLo: curLo, ActiveHi: curHi, UnitsBetween: unitsBetween})
				unitsBetween = 0
				liveLo, liveHi = max(liveLo, curLo), min(liveHi, curHi)
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
