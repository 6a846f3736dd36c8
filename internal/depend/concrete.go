package depend

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/loopir"
)

// The concrete dependence engine executes small instances of the program,
// records every array access with its full iteration vector, pairs accesses
// to the same element into dependence instances, and generalizes the
// observed distance vectors. Running two sample sizes and merging guards
// against size-specific coincidences. For affine programs of the kind the
// paper targets this recovers exact constant distances, and non-uniform
// references are covered the same way.

const ownerNone = int(^uint(0) >> 1) // sentinel: access has no owner index

type access struct {
	write  bool
	stmtID int
	refIdx int
	time   int
	owner  int            // distributed-dimension index of the executing statement, or ownerNone
	iter   map[string]int // loop variable values; shared by the accesses of one iteration, read-only
}

type tracer struct {
	in        *loopir.Instance
	stmtIDs   map[loopir.Stmt]int
	log       map[string]map[int][]access // array -> flat index -> accesses in time order
	clock     int
	env       map[string]int       // parameters and live loop variables: the one evaluation environment
	loops     []string             // live loop variables, outermost first
	iter      map[string]int       // snapshot of the live loop variables; nil after any of them changed
	ownerExpr map[int]loopir.IExpr // stmtID -> dist-dim subscript of the statement's write
}

type refKey struct {
	stmtID int
	refIdx int
}

// assignStmtIDs numbers Assign and If statements in static pre-order,
// matching Analysis.collectRefs.
func assignStmtIDs(stmts []loopir.Stmt, ids map[loopir.Stmt]int, ctr *stmtCounter) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *loopir.Loop:
			assignStmtIDs(s.Body, ids, ctr)
		case *loopir.Assign:
			ids[s] = ctr.n
			ctr.n++
		case *loopir.If:
			ids[s] = ctr.n
			ctr.n++
			assignStmtIDs(s.Then, ids, ctr)
			assignStmtIDs(s.Else, ids, ctr)
		}
	}
}

func (tr *tracer) record(arr string, flat int, write bool, stmtID, refIdx int) {
	if tr.iter == nil {
		tr.iter = make(map[string]int, len(tr.loops))
		for _, l := range tr.loops {
			tr.iter[l] = tr.env[l]
		}
	}
	owner := ownerNone
	if oe, ok := tr.ownerExpr[stmtID]; ok {
		if v, err := tr.in.EvalIndex(oe, tr.env); err == nil {
			owner = v
		}
	}
	byFlat := tr.log[arr]
	if byFlat == nil {
		byFlat = map[int][]access{}
		tr.log[arr] = byFlat
	}
	byFlat[flat] = append(byFlat[flat], access{write: write, stmtID: stmtID, refIdx: refIdx, time: tr.clock, owner: owner, iter: tr.iter})
	tr.clock++
}

func (tr *tracer) flatIndex(r loopir.Ref) (int, error) {
	arr := tr.in.Arrays[r.Array]
	if arr == nil {
		return 0, fmt.Errorf("unknown array %q", r.Array)
	}
	flat := 0
	for d, ie := range r.Idx {
		v, err := tr.in.EvalIndex(ie, tr.env)
		if err != nil {
			return 0, err
		}
		if v < 0 || v >= arr.Dims[d] {
			return 0, fmt.Errorf("trace: %s index %d out of range [0,%d)", r.String(), v, arr.Dims[d])
		}
		flat += v * arr.Stride[d]
	}
	return flat, nil
}

// evalRecord evaluates a data expression, recording each array read.
func (tr *tracer) evalRecord(e loopir.Expr, stmtID int, refIdx *int) (float64, error) {
	switch e := e.(type) {
	case loopir.Const:
		return float64(e), nil
	case loopir.Ref:
		flat, err := tr.flatIndex(e)
		if err != nil {
			return 0, err
		}
		tr.record(e.Array, flat, false, stmtID, *refIdx)
		*refIdx++
		return tr.in.Arrays[e.Array].Data[flat], nil
	case loopir.Bin:
		l, err := tr.evalRecord(e.L, stmtID, refIdx)
		if err != nil {
			return 0, err
		}
		r, err := tr.evalRecord(e.R, stmtID, refIdx)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case '+':
			return l + r, nil
		case '-':
			return l - r, nil
		case '*':
			return l * r, nil
		case '/':
			return l / r, nil
		}
	}
	return 0, fmt.Errorf("unknown expression %T", e)
}

func (tr *tracer) execStmts(stmts []loopir.Stmt) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *loopir.Loop:
			lo, err := tr.in.EvalIndex(s.Lo, tr.env)
			if err != nil {
				return err
			}
			hi, err := tr.in.EvalIndex(s.Hi, tr.env)
			if err != nil {
				return err
			}
			tr.loops = append(tr.loops, s.Var)
			for v := lo; v < hi; v++ {
				tr.env[s.Var] = v
				tr.iter = nil
				if err := tr.execStmts(s.Body); err != nil {
					return err
				}
				if s.BreakIf != nil {
					// Evaluate data-dependent termination (without
					// recording the condition's reads — it is control, not
					// dataflow the communication generator acts on).
					stop, err := tr.in.EvalCond(*s.BreakIf, tr.env)
					if err != nil {
						return err
					}
					if stop {
						break
					}
				}
			}
			// Validate rules out a loop variable shadowing a parameter or an
			// enclosing loop's, so leaving the loop just unbinds it.
			delete(tr.env, s.Var)
			tr.loops = tr.loops[:len(tr.loops)-1]
			tr.iter = nil
		case *loopir.Assign:
			id := tr.stmtIDs[s]
			ri := 0
			val, err := tr.evalRecord(s.RHS, id, &ri)
			if err != nil {
				return err
			}
			flat, err := tr.flatIndex(s.LHS)
			if err != nil {
				return err
			}
			tr.record(s.LHS.Array, flat, true, id, -1)
			tr.in.Arrays[s.LHS.Array].Data[flat] = val
		case *loopir.If:
			id := tr.stmtIDs[s]
			ri := 0
			l, err := tr.evalRecord(s.Cond.L, id, &ri)
			if err != nil {
				return err
			}
			r, err := tr.evalRecord(s.Cond.R, id, &ri)
			if err != nil {
				return err
			}
			taken, err := loopir.Compare(s.Cond.Op, l, r)
			if err != nil {
				return err
			}
			var body []loopir.Stmt
			if taken {
				body = s.Then
			} else {
				body = s.Else
			}
			if err := tr.execStmts(body); err != nil {
				return err
			}
		}
	}
	return nil
}

// depKey identifies an aggregated dependence: a reference pair, a kind, and
// a carrying loop.
type depKey struct {
	array   string
	kind    Kind
	carrier string
	src     refKey
	dst     refKey
}

type depAgg struct {
	perLoop    map[string]Constraint
	seen       bool
	srcRef     loopir.Ref
	dstRef     loopir.Ref
	common     []string
	crossOwner bool
}

// concreteDeps runs the tracer on each sample and merges the aggregated
// dependences. When spec is non-nil, every access is attributed to the
// distributed-dimension owner of its executing statement, and dependences
// connecting different owners are flagged CrossOwner.
func concreteDeps(p *loopir.Program, samples []map[string]int, spec *DistSpec) ([]Dep, error) {
	agg := map[depKey]*depAgg{}
	for _, params := range samples {
		if err := traceSample(p, params, agg, spec); err != nil {
			return nil, err
		}
	}
	keys := make([]depKey, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.array != b.array {
			return a.array < b.array
		}
		if a.src.stmtID != b.src.stmtID {
			return a.src.stmtID < b.src.stmtID
		}
		if a.src.refIdx != b.src.refIdx {
			return a.src.refIdx < b.src.refIdx
		}
		if a.dst.stmtID != b.dst.stmtID {
			return a.dst.stmtID < b.dst.stmtID
		}
		if a.dst.refIdx != b.dst.refIdx {
			return a.dst.refIdx < b.dst.refIdx
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.carrier < b.carrier
	})
	var deps []Dep
	for _, k := range keys {
		g := agg[k]
		d := Dep{
			Array:       k.array,
			Kind:        k.kind,
			Carrier:     k.carrier,
			PerLoop:     g.perLoop,
			CommonLoops: g.common,
			Src:         g.srcRef,
			Dst:         g.dstRef,
			SrcStmt:     k.src.stmtID,
			DstStmt:     k.dst.stmtID,
		}
		if k.carrier != "" {
			d.Distance = g.perLoop[k.carrier]
		}
		d.CrossOwner = g.crossOwner
		deps = append(deps, d)
	}
	return deps, nil
}

// ownerExprs maps each statement to the expression giving the distributed-
// dimension index of its write (the owner-computes rule). If statements
// fall back to the innermost in-scope distributed loop variable, so the
// conditional is attributed to the iterations that execute it.
func ownerExprs(stmts []loopir.Stmt, ids map[loopir.Stmt]int, spec *DistSpec, inScope []string, out map[int]loopir.IExpr) {
	distLoop := map[string]bool{}
	for _, l := range spec.Loops {
		distLoop[l] = true
	}
	scopeOwner := func(scope []string) (loopir.IExpr, bool) {
		for i := len(scope) - 1; i >= 0; i-- {
			if distLoop[scope[i]] {
				return loopir.Iv(scope[i]), true
			}
		}
		return nil, false
	}
	var walk func(stmts []loopir.Stmt, scope []string)
	walk = func(stmts []loopir.Stmt, scope []string) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *loopir.Loop:
				walk(s.Body, append(scope, s.Var))
			case *loopir.Assign:
				if dim, ok := spec.Dims[s.LHS.Array]; ok && dim < len(s.LHS.Idx) {
					out[ids[s]] = s.LHS.Idx[dim]
				} else if oe, ok := scopeOwner(scope); ok {
					out[ids[s]] = oe
				}
			case *loopir.If:
				if oe, ok := scopeOwner(scope); ok {
					out[ids[s]] = oe
				}
				walk(s.Then, scope)
				walk(s.Else, scope)
			}
		}
	}
	walk(stmts, inScope)
}

func traceSample(p *loopir.Program, params map[string]int, agg map[depKey]*depAgg, spec *DistSpec) error {
	in, err := loopir.NewInstance(p, params)
	if err != nil {
		return err
	}
	ids := map[loopir.Stmt]int{}
	assignStmtIDs(p.Body, ids, &stmtCounter{})
	owners := map[int]loopir.IExpr{}
	if spec != nil {
		ownerExprs(p.Body, ids, spec, nil, owners)
	}
	tr := &tracer{
		in:        in,
		stmtIDs:   ids,
		log:       map[string]map[int][]access{},
		env:       maps.Clone(in.Params),
		ownerExpr: owners,
	}
	if err := tr.execStmts(p.Body); err != nil {
		return err
	}

	// Reference contexts for loop lookup.
	a := &Analysis{Prog: p}
	a.collectRefs(p.Body, nil, &stmtCounter{})
	ctxOf := map[refKey]RefCtx{}
	for _, r := range a.Refs {
		ctxOf[refKey{r.StmtID, r.RefIdx}] = r
	}

	addInstance := func(src, dst access, kind Kind, array string) {
		sk := refKey{src.stmtID, src.refIdx}
		dk := refKey{dst.stmtID, dst.refIdx}
		sc, ok1 := ctxOf[sk]
		dc, ok2 := ctxOf[dk]
		if !ok1 || !ok2 {
			return
		}
		common := commonLoops(sc.Loops, dc.Loops)
		carrier := ""
		for _, l := range common {
			if dst.iter[l] != src.iter[l] {
				carrier = l
				break
			}
		}
		key := depKey{array: array, kind: kind, carrier: carrier, src: sk, dst: dk}
		g := agg[key]
		if g == nil {
			g = &depAgg{perLoop: map[string]Constraint{}, srcRef: sc.Ref, dstRef: dc.Ref, common: common}
			agg[key] = g
		}
		for _, l := range common {
			delta := dst.iter[l] - src.iter[l]
			if !g.seen {
				g.perLoop[l] = Constraint{D: delta}
			} else if c := g.perLoop[l]; !c.Any && c.D != delta {
				g.perLoop[l] = Constraint{Any: true}
			}
		}
		g.seen = true
		if src.owner != ownerNone && dst.owner != ownerNone && src.owner != dst.owner {
			g.crossOwner = true
		}
	}

	for array, byFlat := range tr.log {
		for _, accs := range byFlat {
			// accs is already time-ordered.
			for i, src := range accs {
				if src.write {
					// flow: src -> reads until the next write (inclusive
					// scan stops at the next write, which forms the output
					// dependence instead).
					for j := i + 1; j < len(accs); j++ {
						if accs[j].write {
							addInstance(src, accs[j], Output, array)
							break
						}
						addInstance(src, accs[j], Flow, array)
					}
				} else {
					// anti: src read -> next write.
					for j := i + 1; j < len(accs); j++ {
						if accs[j].write {
							addInstance(src, accs[j], Anti, array)
							break
						}
					}
				}
			}
		}
	}
	return nil
}
