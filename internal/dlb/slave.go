package dlb

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/loopir"
)

// rangeLo and rangeHi are the free variables of the interpreted range
// fragment that executes a contiguous run of owned distributed-loop
// iterations.
const (
	rangeLo = "__lo"
	rangeHi = "__hi"
)

// fragRunner is a compiled or interpreted compute fragment. Affine bodies
// compile to a loopir.Kernel; bodies the kernel compiler refuses — indirect
// subscripts like a[idx[i]] — and everything on the interp tier run on the
// tree-walking InterpFragment, which executes the same statements against
// the same arrays.
type fragRunner interface {
	Run(bind map[string]int)
}

// rangeRunner executes iterations [lo,hi) of one distributed loop. Both
// aot.BoundKernel and loopir.RangeKernel have this shape.
type rangeRunner interface {
	Run(lo, hi int, bind map[string]int)
}

// interpRange adapts the tree interpreter to rangeRunner: the loop header
// is part of the fragment and its bounds arrive as free variables.
type interpRange struct{ frag loopir.InterpFragment }

func (r *interpRange) Run(lo, hi int, bind map[string]int) {
	bind[rangeLo], bind[rangeHi] = lo, hi
	r.frag.Run(bind) // copies bind
	delete(bind, rangeLo)
	delete(bind, rangeHi)
}

// ownedExec is one distributed loop's resolved executor.
type ownedExec struct {
	run   rangeRunner // bound native kernel › VM range kernel › interpreter
	units *int64      // the dispatch counter this loop's units feed
	// iarr marks a body with indirect (array-valued) subscripts: its
	// per-unit cost is data-dependent, so the flop estimate walks each
	// unit instead of sampling the midpoint.
	iarr bool
}

type slave struct {
	id     int
	slaves int
	cfg    *Config
	exec   *compile.Exec
	grain  int

	ep   Endpoint
	inst *loopir.Instance
	own  *core.Ownership

	ownedLoops map[*compile.OwnedLoop]*ownedExec
	ownerFrags map[*compile.OwnerBlock]fragRunner
	allFrags   map[*compile.AllStmts]fragRunner
	env        map[string]int
	redSnap    map[string][]float64 // reduction arrays at the last Combine

	// Per-unit cost measurement (learned cost model, and always-on for
	// indirect programs so the imbalance metric stays weighted): costAcc
	// accumulates modeled busy seconds per owned unit since the last
	// report; execHook drains it into CostBlock summaries.
	costMode string // resolved Config.CostModel
	costOn   bool
	costAcc  []float64

	// tier is the resolved kernel tier; aot carries the run's shared
	// native kernels (only regions the emitter accepted — others fall
	// back tier by tier).
	tier string
	aot  *aotBundle

	aotUnits      int64 // units executed through AOT-built native kernels
	kernelUnits   int64 // units executed through compiled range kernels
	fallbackUnits int64 // units executed through the tree interpreter

	// Split-loop async ghost exchange (Config.Overlap): pending maps a
	// carrier loop to the exchange group whose sends were posted but whose
	// receives are deferred until after the carrier's interior pass.
	// Entries only live between an Exchange step and the OwnedLoop that
	// directly follows it (the compile-time carrier), so the map is empty
	// across hooks, combines, and epoch restarts.
	overlapOn       bool
	pending         map[*compile.OwnedLoop]*compile.Exchange
	overlapRounds   int64
	overlapFallback int64

	// Message tags are built once, not per message: each distributed
	// array's exchange tag, and the fault policy's epoch-qualified form of
	// every slave-to-slave tag used this epoch.
	ghostTags, epochTags map[string]string

	ownedCache []int // sorted owned units; nil means rebuild
	// Ghost-list caches, keyed by delta: ownership only changes at hooks
	// (moves, deactivation, recovery — all funneled through
	// invalidateOwned), so the per-iteration exchange and pipeline lists
	// are reused until then.
	needsCache    map[int][]int
	suppliesCache map[int][]supply

	hookVisit   int
	nextContact int
	phase       int
	unitsDone   float64
	busyMark    time.Duration
	lastMove    time.Duration
	lastInter   time.Duration

	// part routes master traffic through the group hierarchy when set
	// (grouped runs without a fault policy): members report to their group
	// leader, the leader aggregates and talks to the master, and
	// instructions relay back the same way. nil: every slave talks to the
	// master directly.
	part *hier.Partition

	// fault is the slave-side fault-tolerance policy; under noSlaveFault
	// the state below stays at its zero values.
	fault         slaveFault
	epoch         int
	alive         []bool // nil until the first recovery: everyone alive
	ff            bool   // fast-forwarding control flow to ffUntil
	ffUntil       int
	skipInstrOnce bool // first post-recovery contact restores pipelining
	lastHB        time.Duration
	hbEvery       time.Duration
	joinAt        time.Duration // joiner: when to register (joiner iff joiner=true)
	joiner        bool
}

func (s *slave) runOn(ep Endpoint) {
	s.ep = ep
	plan := s.exec.Plan

	// Local instance: full-size arrays, zeroed — only data delivered by the
	// scatter, exchanges, broadcasts, and work movement is valid, so any
	// read of non-owned data surfaces as corruption instead of silently
	// using initial values.
	inst, err := loopir.NewZeroInstance(plan.Prog, s.exec.Params)
	if err != nil {
		panic(fmt.Sprintf("slave%d: %v", s.id, err))
	}
	s.inst = inst

	// Local ownership map — the paper's index array, kept in sync with the
	// master by applying the same instructions.
	s.own = core.NewBlockOwnership(s.exec.Units, s.slaves)
	s.own.RetireOutside(s.exec.InitialLo, s.exec.InitialHi)

	s.lowerPlan()

	// Per-unit cost measurement: always on for indirect (data-dependent)
	// programs so the weighted imbalance metric is meaningful in either
	// mode; the learned mode additionally feeds the master's model.
	s.costOn = s.costMode == CostLearned || loopir.UsesIArr(plan.Prog.Body)
	if s.costOn {
		s.costAcc = make([]float64, s.exec.Units)
	}

	s.pending = map[*compile.OwnedLoop]*compile.Exchange{}
	s.ghostTags, s.epochTags = map[string]string{}, map[string]string{}
	for arr := range plan.DistArrays {
		s.ghostTags[arr] = "ghost:" + arr
	}

	s.env = map[string]int{}
	for k, v := range s.exec.Params {
		s.env[k] = v
	}

	if s.joiner {
		// An idle node: register at joinAt and wait to be adopted into a
		// recovery epoch. If the run ends first, the master's shutdown
		// EvictMsg releases us.
		if !s.fault.join(s) {
			return
		}
	} else {
		// Initial scatter from the master.
		init := s.ep.Recv(cluster.MasterID, "init").Data.(InitMsg)
		installUnits(plan.DistArrays, s.inst.Arrays, init.Owned)
		installArrays(s.inst.Arrays, init.Replicated)
		// Snapshot reduction arrays so Combine can merge per-slave deltas.
		s.redSnap = copyArrays(s.inst.Arrays, reductionArrays(plan))
	}
	s.busyMark = s.ep.Busy()
	s.lastHB = s.ep.Now()

	// Epoch loop: a recovery AdoptMsg unwinds execution (epochRestart) back
	// to here; the slave restores the checkpoint and re-enters the step tree,
	// fast-forwarding to the checkpoint hook. Without faults there is one
	// pass. The termination announcement and the wait for the master's
	// commit are part of the recoverable region: a slave that finished can
	// still be rolled back if a peer died in the final round.
	for !s.fault.runEpoch(s) {
	}

	// Final gather: ship every owned unit of every distributed array back
	// to the master; slave 0 also reports the combined reduction values.
	g := GatherMsg{Data: packUnits(plan.DistArrays, s.own.Owned(s.id), slicesOf(s.inst.Arrays))}
	// The designated (lowest alive) slave reports the combined reduction
	// values — identical on every slave after Combine.
	if s.designated() && len(plan.Reductions) > 0 {
		g.Reduced = copyArrays(s.inst.Arrays, reductionArrays(plan))
	}
	s.ep.Send(cluster.MasterID, "gather", g)
}

func (s *slave) eval(e loopir.IExpr) int {
	v, err := loopir.EvalIndex(e, s.env)
	if err != nil {
		panic(fmt.Sprintf("slave%d: %v", s.id, err))
	}
	return v
}

// lowerPlan compiles the generated code against the local arrays: one
// range runner per distributed loop, one fragment per owner block and per
// replicated statement list.
func (s *slave) lowerPlan() {
	s.ownedLoops = map[*compile.OwnedLoop]*ownedExec{}
	s.ownerFrags = map[*compile.OwnerBlock]fragRunner{}
	s.allFrags = map[*compile.AllStmts]fragRunner{}
	compile.WalkSteps(s.exec.Plan.Steps, func(st compile.Step, _ []compile.Step) error {
		switch st := st.(type) {
		case *compile.OwnedLoop:
			s.ownedLoops[st] = s.lowerOwned(st)
		case *compile.OwnerBlock:
			s.ownerFrags[st] = s.kernelOrInterp(st.Body)
		case *compile.AllStmts:
			s.allFrags[st] = s.kernelOrInterp(st.Body)
		}
		return nil
	})
}

// lowerOwned resolves one distributed loop's executor for the slave's
// tier: the bound native kernel (aot), else the VM range kernel, else the
// tree interpreter — which is all the interp tier uses, and where bodies
// the kernel compiler refuses (non-affine subscripts) land on any tier.
func (s *slave) lowerOwned(st *compile.OwnedLoop) *ownedExec {
	ox := &ownedExec{iarr: loopir.UsesIArr(st.Body)}
	if k := s.aot.kernelFor(st); k != nil && s.tier == KernelAOT {
		if bk, err := k.Bind(s.inst.Arrays); err == nil {
			ox.run, ox.units = bk, &s.aotUnits
			return ox
		}
	}
	if s.tier != KernelInterp {
		if rk, err := s.inst.CompileRangeKernel(st.Var, st.Body); err == nil {
			ox.run, ox.units = rk, &s.kernelUnits
			return ox
		}
	}
	loop := loopir.For(st.Var, loopir.Iv(rangeLo), loopir.Iv(rangeHi), st.Body...)
	ox.run = &interpRange{loopir.InterpFragment{In: s.inst, Stmts: []loopir.Stmt{loop}}}
	ox.units = &s.fallbackUnits
	return ox
}

// kernelOrInterp compiles statements to a kernel, falling back to the
// tree-walking interpreter for bodies the compiler refuses (indirect
// subscripts); the interp tier runs the interpreter unconditionally.
func (s *slave) kernelOrInterp(stmts []loopir.Stmt) fragRunner {
	if s.tier != KernelInterp {
		if k, err := s.inst.CompileKernel(stmts); err == nil {
			return k
		}
	}
	return &loopir.InterpFragment{In: s.inst, Stmts: stmts}
}

// leaf runs one step the plan's interpreter (compile.Plan.Run) hands the
// slave: every step that computes or communicates, and the hooks. [lo, hi)
// is the innermost strip block, the rows a pipeline step carries.
func (s *slave) leaf(st compile.Step, lo, hi int) error {
	// Fast-forward replays control flow only: loops run and hooks count
	// their visits, but nothing computes or communicates.
	if _, hook := st.(*compile.Hook); s.ff && !hook {
		return nil
	}
	switch st := st.(type) {
	case *compile.Hook:
		s.execHook(st)
	case *compile.OwnedLoop:
		s.execOwned(st)
	case *compile.OwnerBlock:
		s.execOwnerBlock(st)
	case *compile.AllStmts:
		s.execAll(st)
	case *compile.Exchange:
		s.execExchange(st)
	case *compile.PipeRecv:
		s.execPipeRecv(st, lo, hi)
	case *compile.PipeSend:
		s.execPipeSend(st, lo, hi)
	case *compile.Bcast:
		s.execBcast(st)
	case *compile.Combine:
		s.execCombine(st)
	}
	return nil
}

// brk evaluates a sequential loop's break condition. It reads local
// (replicated, post-Combine) data — identical on every slave. During
// fast-forward it is false: the checkpointed execution demonstrably got
// past this point, so the original evaluation was false (and restored data
// may not support re-evaluating it here).
func (s *slave) brk(c *loopir.Cond) (bool, error) {
	if s.ff {
		return false, nil
	}
	stop, err := s.inst.EvalCond(*c, s.env)
	if err != nil {
		return false, fmt.Errorf("break condition: %w", err)
	}
	return stop, nil
}

// execCombine all-reduces a reduction array: deltas since the last Combine
// are exchanged all-to-all and summed in slave order, so every slave ends
// with bit-identical values.
func (s *slave) execCombine(st *compile.Combine) {
	arr := s.inst.Arrays[st.Array]
	snap := s.redSnap[st.Array]
	n := len(arr.Data)
	delta := make([]float64, n)
	for i := range delta {
		delta[i] = arr.Data[i] - snap[i]
	}
	tag := "reduce:" + st.Array
	for o := 0; o < s.slaves; o++ {
		if o == s.id || !s.peerAlive(o) {
			continue
		}
		s.send(o, tag, append([]float64(nil), delta...))
	}
	parts := make([][]float64, s.slaves)
	parts[s.id] = delta
	for o := 0; o < s.slaves; o++ {
		if o == s.id || !s.peerAlive(o) {
			continue
		}
		parts[o] = s.recvPeer(o, tag).Data.([]float64)
	}
	for i := 0; i < n; i++ {
		v := snap[i]
		for o := 0; o < s.slaves; o++ {
			if parts[o] != nil {
				v += parts[o][i]
			}
		}
		arr.Data[i] = v
		snap[i] = v
	}
}

// drainCostBlocks summarizes the per-unit cost accumulated since the last
// report into at most maxCostBlocks contiguous blocks and resets the
// accumulator. Chunks whose units all carry the identical cost report that
// exact value (no mean computation), so a genuinely uniform program's
// reports are exactly uniform and the master's model never leaves the
// dense prior.
func (s *slave) drainCostBlocks() []CostBlock {
	if !s.costOn {
		return nil
	}
	// Contiguous runs of touched units.
	type span struct{ lo, hi int }
	var spans []span
	touched := 0
	for u := 0; u < len(s.costAcc); u++ {
		if s.costAcc[u] <= 0 {
			continue
		}
		if len(spans) > 0 && spans[len(spans)-1].hi == u {
			spans[len(spans)-1].hi = u + 1
		} else {
			spans = append(spans, span{u, u + 1})
		}
		touched++
	}
	if touched == 0 {
		return nil
	}
	chunk := (touched + maxCostBlocks - 1) / maxCostBlocks
	if chunk < 1 {
		chunk = 1
	}
	var blocks []CostBlock
	for _, sp := range spans {
		for lo := sp.lo; lo < sp.hi; lo += chunk {
			hi := lo + chunk
			if hi > sp.hi {
				hi = sp.hi
			}
			mn, mx, sum := s.costAcc[lo], s.costAcc[lo], 0.0
			for u := lo; u < hi; u++ {
				v := s.costAcc[u]
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
				sum += v
				s.costAcc[u] = 0
			}
			per := mn
			if mn != mx {
				per = sum / float64(hi-lo)
			}
			blocks = append(blocks, CostBlock{Lo: lo, Hi: hi, PerUnit: per})
		}
	}
	return blocks
}

func (s *slave) owned() []int {
	if s.ownedCache == nil {
		s.ownedCache = s.own.Owned(s.id)
	}
	return s.ownedCache
}

func (s *slave) invalidateOwned() {
	s.ownedCache = nil
	s.needsCache = nil
	s.suppliesCache = nil
}

// ghostNeedsCached returns ghostNeeds(own, me, delta), memoized until the
// next ownership or active-set change (invalidateOwned).
func (s *slave) ghostNeedsCached(delta int) []int {
	if n, ok := s.needsCache[delta]; ok {
		return n
	}
	if s.needsCache == nil {
		s.needsCache = map[int][]int{}
	}
	n := ghostNeeds(s.own, s.id, delta)
	s.needsCache[delta] = n
	return n
}

// ghostSuppliesCached is the supply-side twin of ghostNeedsCached.
func (s *slave) ghostSuppliesCached(delta int) []supply {
	if sp, ok := s.suppliesCache[delta]; ok {
		return sp
	}
	if s.suppliesCache == nil {
		s.suppliesCache = map[int][]supply{}
	}
	sp := ghostSupplies(s.own, s.id, delta)
	s.suppliesCache[delta] = sp
	return sp
}

func (s *slave) execOwned(st *compile.OwnedLoop) {
	// Long compute stretches between hooks must not starve the master's
	// failure detector (the more work a slave inherits, the longer its
	// silent stretches — exactly when false eviction hurts most).
	s.fault.heartbeat(s)
	// Deferred exchange group targeting this loop (split-loop overlap): its
	// receives complete after the interior pass below. Every early return
	// must still drain it — the ghost data is needed by later steps, and an
	// unconsumed (sender, tag) mailbox would desequence the next exchange
	// on the same array.
	pend := s.pending[st]
	delete(s.pending, st)
	lo, hi, err := st.Range(s.env, s.exec.Units)
	if err != nil {
		panic(fmt.Sprintf("slave%d: %v", s.id, err))
	}
	if hi <= lo {
		s.drainPending(pend)
		return
	}
	runs := contiguousRuns(s.owned(), lo, hi)
	count := 0
	for _, r := range runs {
		count += r[1] - r[0]
	}
	if count == 0 {
		s.drainPending(pend)
		return
	}

	ox := s.ownedLoops[st]
	iarr := ox.iarr
	var perUnit float64
	var unitFlops []float64 // per-unit estimates, indirect bodies only
	if iarr {
		// Data-dependent body: the midpoint sample is meaningless, so walk
		// the owned units and estimate each one against the live arrays.
		// The simulated charge then reflects the real skew — exactly the
		// signal the learned cost model measures.
		unitFlops = make([]float64, 0, count)
		for _, r := range runs {
			for u := r[0]; u < r[1]; u++ {
				s.env[st.Var] = u
				unitFlops = append(unitFlops, s.inst.EstFlops(st.Body, s.env))
			}
		}
	} else {
		s.env[st.Var] = lo + (hi-lo)/2
		perUnit = loopir.EstFlops(st.Body, s.env)
	}
	// The estimates bind the loop variable in s.env itself, as Plan.Run
	// does for its loops; the runner binds its own, and none keeps the map
	// or leaves a binding in it.
	delete(s.env, st.Var)
	// bw is the boundary width of the pending overlap: units within bw of a
	// run edge may read a ghost and form the boundary region; everything
	// deeper is interior and safe to compute before the receives complete.
	bw := 0
	if pend != nil {
		for _, ex := range pend.Parts {
			bw = max(bw, ex.Delta, -ex.Delta)
		}
	}
	// flops estimates the owned units at positions [i, j) of the runs,
	// adding in unit order: the one estimate behind every charge below.
	flops := func(i, j int) float64 {
		if !iarr {
			return perUnit * float64(j-i)
		}
		f := 0.0
		for _, uf := range unitFlops[i:j] {
			f += uf
		}
		return f
	}
	charge := 0.0
	chargeInt := 0.0 // interior share of charge when splitting
	flopSec := s.cfg.FlopCost.Seconds()
	ui := 0
	for _, r := range runs {
		n := r[1] - r[0]
		charge += flops(ui, ui+n)
		if bw > 0 && n > 2*bw {
			chargeInt += flops(ui+bw, ui+n-bw)
		}
		if s.costOn {
			for k := 0; k < n; k++ {
				s.costAcc[r[0]+k] += flops(ui+k, ui+k+1) * flopSec
			}
		}
		ui += n
	}
	total := time.Duration(charge * float64(s.cfg.FlopCost))

	runRange := func(rlo, rhi int) {
		if rhi > rlo {
			ox.run.Run(rlo, rhi, s.env)
		}
	}
	if bw == 0 {
		// Synchronous schedule (no deferred exchange): one charge, one pass.
		s.ep.Charge(total)
		s.ep.Timed(func() {
			for _, r := range runs {
				runRange(r[0], r[1])
			}
		})
	} else {
		// Split schedule: interior compute overlaps the in-flight ghosts,
		// then the receives complete, then the boundary units run. The
		// boundary charge is the exact remainder of the synchronous total,
		// so Busy — and with it every status report and master decision —
		// is bit-identical to the synchronous path; only idle (elapsed)
		// time shrinks. Values match too: eligibility rules out reductions
		// and in-place stencils, so unit results are order-independent, and
		// interior units never read a ghost.
		intDur := time.Duration(chargeInt * float64(s.cfg.FlopCost))
		s.ep.Charge(intDur)
		s.ep.Timed(func() {
			for _, r := range runs {
				runRange(r[0]+bw, r[1]-bw)
			}
		})
		s.recvGhosts(pend)
		s.ep.Charge(total - intDur)
		s.ep.Timed(func() {
			for _, r := range runs {
				ilo, ihi := r[0]+bw, r[1]-bw
				if ihi <= ilo {
					runRange(r[0], r[1])
					continue
				}
				runRange(r[0], ilo)
				runRange(ihi, r[1])
			}
		})
		s.overlapRounds++
	}
	s.unitsDone += float64(count)
	*ox.units += int64(count)
}

// drainPending completes deferred ghost receives on a carrier loop that
// ran no interior work (nothing owned in range this round): the overlap
// bought nothing, which counts as a fallback round.
func (s *slave) drainPending(pend *compile.Exchange) {
	if pend == nil {
		return
	}
	s.recvGhosts(pend)
	s.overlapFallback++
}

func (s *slave) execOwnerBlock(st *compile.OwnerBlock) {
	idx := s.eval(st.Index)
	if idx < 0 || idx >= s.exec.Units || s.own.OwnerOf(idx) != s.id {
		return
	}
	flops := loopir.EstFlops(st.Body, s.env)
	s.ep.Charge(time.Duration(flops * float64(s.cfg.FlopCost)))
	s.ep.Timed(func() { s.ownerFrags[st].Run(s.env) })
}

func (s *slave) execAll(st *compile.AllStmts) {
	flops := loopir.EstFlops(st.Body, s.env)
	s.ep.Charge(time.Duration(flops * float64(s.cfg.FlopCost)))
	s.ep.Timed(func() { s.allFrags[st].Run(s.env) })
	// Replicated statements run identically on every slave, so their
	// result is shared state: refresh reduction snapshots so the next
	// Combine's deltas are measured from here (e.g. the residual reset at
	// the top of a convergence sweep).
	for arr, snap := range s.redSnap {
		copy(snap, s.inst.Arrays[arr].Data)
	}
}

// execExchange performs the sweep-start ghost exchange (paper Figure 3a's
// first send/receive) as one step: every part's boundary units are sent
// before the first receive completes, so neighbours wait one link latency,
// not a round trip per direction. Legal for every group: a send reads owned
// units, a ghost receive writes only non-owned ones, and sends never block.
// A split-loop eligible group (with overlap enabled) only posts its sends
// here; the receives are deferred to the carrier loop's execOwned, which
// runs its interior units first so the latency hides behind compute. Either
// way each (sender, tag) mailbox is drained in part order, the order it was
// filled in, so the data flow — and every value — is the same.
func (s *slave) execExchange(st *compile.Exchange) {
	for _, p := range st.Parts {
		arr := s.inst.Arrays[p.Array]
		dim := s.exec.Plan.DistArrays[p.Array]
		tag := s.ghostTags[p.Array]
		for _, sp := range s.ghostSuppliesCached(p.Delta) {
			s.send(sp.To, tag, SliceMsg{Unit: sp.Unit, RowLo: -1, RowHi: -1, Vals: unitSlice(arr, dim, sp.Unit)})
		}
	}
	if s.overlapOn && st.Overlap {
		s.pending[st.Carrier] = st
		return
	}
	s.recvGhosts(st)
}

// recvGhosts completes a group's ghost receives in part order. The needs
// lists are stable between posting and completion: ownership and the active
// set only change at hooks, and compile-time eligibility guarantees no hook
// sits between an overlapped exchange and its carrier loop.
func (s *slave) recvGhosts(st *compile.Exchange) {
	for _, p := range st.Parts {
		arr := s.inst.Arrays[p.Array]
		dim := s.exec.Plan.DistArrays[p.Array]
		tag := s.ghostTags[p.Array]
		for _, g := range s.ghostNeedsCached(p.Delta) {
			from := s.own.OwnerOf(g)
			m := s.recvPeer(from, tag).Data.(SliceMsg)
			if m.Unit != g {
				panic(fmt.Sprintf("slave%d: ghost mismatch on %s delta %+d: slave%d sent unit %d, want %d",
					s.id, p.Array, p.Delta, from, m.Unit, g))
			}
			setUnitSlice(arr, dim, g, m.Vals)
		}
	}
}

// execPipeRecv receives the strip block [lo, hi)'s rows of the pipeline
// ghost unit — values the neighbor computed earlier in this sweep.
func (s *slave) execPipeRecv(st *compile.PipeRecv, lo, hi int) {
	arr := s.inst.Arrays[st.Array]
	dim := s.exec.Plan.DistArrays[st.Array]
	tag := "pipe:" + st.Array
	for _, g := range s.ghostNeedsCached(st.Delta) {
		m := s.recvPeer(s.own.OwnerOf(g), tag).Data.(SliceMsg)
		if m.Unit != g || m.RowLo != lo {
			panic(fmt.Sprintf("slave%d: pipe mismatch: got unit %d rows [%d,%d), want unit %d rows [%d,%d)",
				s.id, m.Unit, m.RowLo, m.RowHi, g, lo, hi))
		}
		setUnitSliceRows(arr, dim, g, st.RowDim, m.RowLo, m.RowHi, m.Vals)
	}
}

// execPipeSend sends the strip block [lo, hi)'s rows of our boundary units
// to the neighbors that read them next.
func (s *slave) execPipeSend(st *compile.PipeSend, lo, hi int) {
	arr := s.inst.Arrays[st.Array]
	dim := s.exec.Plan.DistArrays[st.Array]
	tag := "pipe:" + st.Array
	for _, sp := range s.ghostSuppliesCached(-st.Delta) {
		vals := unitSliceRows(arr, dim, sp.Unit, st.RowDim, lo, hi)
		s.send(sp.To, tag, SliceMsg{Unit: sp.Unit, RowLo: lo, RowHi: hi, Vals: vals})
	}
}

// execBcast broadcasts one unit from its owner to everyone else (§4.6)
// along a binomial tree over the alive roster: the owner seeds the relay
// and every receiver forwards to the peers in its subtree, so the critical
// path is O(log P) messages instead of the owner serializing P−1 sends.
// Every slave derives the identical tree from the shared ownership and
// alive state, and the payload is relayed verbatim.
func (s *slave) execBcast(st *compile.Bcast) {
	idx := s.eval(st.Index)
	if idx < 0 || idx >= s.exec.Units {
		return
	}
	arr := s.inst.Arrays[st.Array]
	dim := s.exec.Plan.DistArrays[st.Array]
	tag := "bcast:" + st.Array
	owner := s.own.OwnerOf(idx)
	// Alive roster in id order; ranks are relative to the owner's position
	// so the owner is the tree root (relative rank 0).
	peers := make([]int, 0, s.own.Slaves())
	myPos, rootPos := -1, -1
	for o := 0; o < s.own.Slaves(); o++ {
		if o != s.id && !s.peerAlive(o) {
			continue
		}
		if o == s.id {
			myPos = len(peers)
		}
		if o == owner {
			rootPos = len(peers)
		}
		peers = append(peers, o)
	}
	if rootPos < 0 {
		// Owner not alive in our view: recovery will rewind this epoch.
		return
	}
	n := len(peers)
	rel := (myPos - rootPos + n) % n

	var vals []float64
	if rel == 0 {
		vals = unitSlice(arr, dim, idx)
	}
	// Receive phase: find the lowest set bit of our relative rank — the
	// peer rel−mask sends to us.
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := peers[(rel-mask+rootPos)%n]
			m := s.recvPeer(src, tag).Data.(SliceMsg)
			if m.Unit != idx {
				panic(fmt.Sprintf("slave%d: bcast mismatch: got unit %d, want %d", s.id, m.Unit, idx))
			}
			setUnitSlice(arr, dim, idx, m.Vals)
			vals = m.Vals
			break
		}
		mask <<= 1
	}
	// Relay phase: forward down the subtree, halving the mask. The payload
	// is shared — receivers only copy out of Vals.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			dst := peers[(rel+mask+rootPos)%n]
			s.send(dst, tag, SliceMsg{Unit: idx, RowLo: -1, RowHi: -1, Vals: vals})
		}
	}
}

// execHook implements the load-balancing hook (§4.2/§4.3): skip counting,
// status reporting, instruction receipt, and work movement.
func (s *slave) execHook(st *compile.Hook) {
	if st.Level != s.exec.ActiveLevel {
		return
	}
	if s.ff {
		// Fast-forward counts hook visits without contacting the master;
		// the checkpoint already contains the effects of hook ffUntil, so
		// normal execution resumes immediately after it.
		hv := s.hookVisit
		s.hookVisit++
		if hv == s.ffUntil {
			s.ff = false
		}
		return
	}
	s.fault.heartbeat(s)
	hv := s.hookVisit
	s.hookVisit++
	if !s.cfg.DLB || hv != s.nextContact {
		s.ep.Charge(hookCheckCost)
		return
	}

	busyStart := s.ep.Busy()
	status := StatusMsg{
		Phase:      s.phase,
		HookIndex:  hv,
		Units:      s.unitsDone,
		Busy:       busyStart - s.busyMark,
		MoveCost:   s.lastMove,
		InterCost:  s.lastInter,
		Epoch:      s.epoch,
		CostBlocks: s.drainCostBlocks(),
	}
	if s.part != nil {
		s.reportHier("status", "gstatus", status, s.cfg.PerReportCost)
	} else {
		s.ep.Send(cluster.MasterID, "status", status)
	}
	s.unitsDone = 0

	wantInstr := true
	if !s.cfg.Synchronous && s.phase == 0 {
		wantInstr = false // pipelined: nothing in flight yet
	}
	if s.skipInstrOnce {
		wantInstr = false // ditto right after a recovery epoch restart
		s.skipInstrOnce = false
	}
	ckptSeq := 0
	if wantInstr {
		// The interaction cost fed to the period rule (20x bound) is the
		// CPU overhead of the exchange, not time spent blocked waiting for
		// the instruction (pipelining exists precisely to hide that wait).
		s.lastInter = s.ep.Busy() - busyStart
		var instr InstrMsg
		if s.part != nil {
			instr = s.recvInstrHier()
		} else {
			instr = s.fault.recvInstr(s)
		}
		s.applyInstr(instr)
		ckptSeq = instr.CkptSeq
	} else {
		s.lastInter = s.ep.Busy() - busyStart
		// No instruction consumed (first pipelined contact): keep
		// contacting every hook until the master assigns a skip.
		s.nextContact = s.hookVisit
	}
	s.phase++
	s.busyMark = s.ep.Busy()
	s.fault.checkpoint(s, hv, ckptSeq)
}

// applyInstr updates the active set, executes the work movement this slave
// participates in, and adopts the new hook-skip count.
func (s *slave) applyInstr(instr InstrMsg) {
	meta := s.exec.Phases[instr.HookIndex]
	s.own.RetireOutside(meta.ActiveLo, meta.ActiveHi)
	s.invalidateOwned()

	if len(instr.Moves) > 0 {
		t0 := s.ep.Now()
		for _, m := range instr.Moves {
			s.applyMove(m)
		}
		s.invalidateOwned()
		s.lastMove = s.ep.Now() - t0
	}
	s.nextContact = s.hookVisit + instr.SkipHooks
	if s.nextContact < s.hookVisit {
		s.nextContact = s.hookVisit
	}
}

func (s *slave) applyMove(m core.Move) {
	plan := s.exec.Plan
	switch {
	case m.From == s.id:
		moved := map[int]bool{}
		for _, u := range m.Units {
			moved[u] = true
		}
		w := WorkMsg{Units: m.Units, Data: map[string][][]float64{}, Ghosts: map[string]map[int][]float64{}}
		for arr, dim := range plan.DistArrays {
			a := s.inst.Arrays[arr]
			slices := make([][]float64, len(m.Units))
			for i, u := range m.Units {
				slices[i] = unitSlice(a, dim, u)
			}
			w.Data[arr] = slices
			// Ghost payload: data adjacent to the moved range so the new
			// owner's stale copies are refreshed (§4.5).
			if len(plan.GhostDeltas) > 0 {
				gm := map[int][]float64{}
				for _, delta := range plan.GhostDeltas {
					for _, u := range m.Units {
						g := u + delta
						if g < 0 || g >= s.exec.Units || moved[g] {
							continue
						}
						if _, dup := gm[g]; dup {
							continue
						}
						gm[g] = unitSlice(a, dim, g)
					}
				}
				w.Ghosts[arr] = gm
			}
		}
		s.send(m.To, "work", w)
		if err := s.own.Apply(m); err != nil {
			panic(fmt.Sprintf("slave%d: %v", s.id, err))
		}
	case m.To == s.id:
		msg := s.recvPeer(m.From, "work").Data.(WorkMsg)
		for arr, slices := range msg.Data {
			dim := plan.DistArrays[arr]
			a := s.inst.Arrays[arr]
			for i, u := range msg.Units {
				setUnitSlice(a, dim, u, slices[i])
			}
		}
		for arr, gm := range msg.Ghosts {
			dim := plan.DistArrays[arr]
			a := s.inst.Arrays[arr]
			for g, vals := range gm {
				// Only refresh units we do not hold authoritative data
				// for: the sender's ghost copy is stale for units we own.
				if s.own.OwnerOf(g) == s.id {
					continue
				}
				setUnitSlice(a, dim, g, vals)
			}
		}
		if err := s.own.Apply(m); err != nil {
			panic(fmt.Sprintf("slave%d: %v", s.id, err))
		}
	default:
		if err := s.own.Apply(m); err != nil {
			panic(fmt.Sprintf("slave%d: %v", s.id, err))
		}
	}
}

// send is the slave-to-slave send (epoch-scoped tag under the FT policy).
func (s *slave) send(to int, tag string, data interface{}) {
	s.ep.Send(to, s.fault.commTag(s, tag), data)
}

// recvPeer is the slave-to-slave blocking receive.
func (s *slave) recvPeer(from int, tag string) cluster.Msg {
	return s.fault.recvPeer(s, from, tag)
}

func (s *slave) peerAlive(o int) bool { return s.fault.peerAlive(s, o) }

func (s *slave) designated() bool { return s.fault.designated(s) }

// reportHier routes a contact report ("status"/"gstatus") or the
// termination announcement ("done"/"gdone") through the hierarchy: a
// member reports to its group leader; the leader collects its members'
// reports in id order, charges the processing cost that the centralized
// master would otherwise pay for them, and ships one aggregate to the
// master. Every slave follows the identical schedule, so when the leader
// finishes its members finish in the same round.
func (s *slave) reportHier(tag, groupTag string, msg StatusMsg, charge time.Duration) {
	g := s.part.GroupOf(s.id)
	if !s.part.IsLeader(s.id) {
		s.ep.Send(s.part.Leader(g), tag, msg)
		return
	}
	members := s.part.Members(g)
	gs := GroupStatusMsg{
		Group:    g,
		Ids:      make([]int, 0, len(members)),
		Statuses: make([]StatusMsg, 0, len(members)),
	}
	gs.Ids = append(gs.Ids, s.id)
	gs.Statuses = append(gs.Statuses, msg)
	for _, m := range members {
		if m == s.id {
			continue
		}
		st := s.ep.Recv(m, tag).Data.(StatusMsg)
		gs.Ids = append(gs.Ids, m)
		gs.Statuses = append(gs.Statuses, st)
	}
	s.ep.Charge(time.Duration(len(members)) * charge)
	s.ep.Send(cluster.MasterID, groupTag, gs)
}

// recvInstrHier receives the grouped instruction. The leader takes the
// master's GroupShiftMsg and relays the instruction to its members BEFORE
// applying it itself: applying may block on work transfers from members,
// and the members are blocked waiting for this very instruction.
func (s *slave) recvInstrHier() InstrMsg {
	g := s.part.GroupOf(s.id)
	if !s.part.IsLeader(s.id) {
		return s.ep.Recv(s.part.Leader(g), "instr").Data.(InstrMsg)
	}
	instr := s.ep.Recv(cluster.MasterID, "ginstr").Data.(GroupShiftMsg).Instr
	for _, m := range s.part.Members(g) {
		if m == s.id {
			continue
		}
		s.ep.Send(m, "instr", instr)
	}
	return instr
}

// runTree executes the step tree once and announces termination: with
// data-dependent break conditions the number of balancing phases is only
// known here, at run time (§4.1).
func (s *slave) runTree() {
	if err := s.exec.Plan.Run(s.env, s.grain, s.leaf, s.brk); err != nil {
		panic(fmt.Sprintf("slave%d: %v", s.id, err))
	}
	done := StatusMsg{
		Phase:           s.phase,
		HookIndex:       s.hookVisit,
		Epoch:           s.epoch,
		AotUnits:        s.aotUnits,
		KernelUnits:     s.kernelUnits,
		FallbackUnits:   s.fallbackUnits,
		OverlapRounds:   s.overlapRounds,
		OverlapFallback: s.overlapFallback,
	}
	if s.part != nil {
		s.reportHier("done", "gdone", done, 0)
		return
	}
	s.ep.Send(cluster.MasterID, "done", done)
}

// applyRecover installs a recovery epoch: restore the checkpointed arrays,
// ownership and reduction state, adopt the (possibly repaired and grown)
// membership, and arm the fast-forward that replays control flow up to the
// checkpoint hook.
func (s *slave) applyRecover(a AdoptMsg) {
	plan := s.exec.Plan
	s.epoch = a.Epoch
	clear(s.epochTags)
	s.slaves = a.Slaves
	s.alive = append([]bool(nil), a.Alive...)
	s.own = core.OwnershipFromMap(a.Owner, a.Active, a.Slaves)
	s.invalidateOwned()

	for arr := range plan.DistArrays {
		s.inst.Arrays[arr].Fill(nil)
	}
	installUnits(plan.DistArrays, s.inst.Arrays, a.Owned)
	installArrays(s.inst.Arrays, a.Replicated)
	// Per-slave reduction values override the shared replicated copy.
	installArrays(s.inst.Arrays, a.Red)
	s.redSnap = cloneArrays(a.RedSnap)

	s.phase = a.Phase
	s.nextContact = a.NextContact
	s.hookVisit = 0
	s.ff = a.Hook >= 0
	s.ffUntil = a.Hook
	s.skipInstrOnce = !s.cfg.Synchronous && a.Hook >= 0
	s.unitsDone = 0
	s.aotUnits, s.kernelUnits, s.fallbackUnits = 0, 0, 0
	// Overlap rounds are replayed by the restarted epoch, so the counter
	// resets with the other dispatch counters; abandoned rounds are not
	// replayed as overlap (their in-flight ghosts died with the old
	// epoch's tags), so the fallback count survives the restart.
	if len(s.pending) > 0 {
		clear(s.pending)
		s.overlapFallback++
	}
	s.overlapRounds = 0
	for i := range s.costAcc {
		s.costAcc[i] = 0
	}
	s.busyMark = s.ep.Busy()
	s.lastMove, s.lastInter = 0, 0
	s.lastHB = s.ep.Now()
	s.env = map[string]int{}
	for k, v := range s.exec.Params {
		s.env[k] = v
	}
}
