package dlb

import (
	"fmt"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/loopir"
)

// Message payloads. In the simulated cluster these travel by reference but
// all float data is copied at send time, so the timing model and the data
// flow match a real message-passing system.

// StatusMsg is a slave's report at a load-balancing contact (or, with
// tag "done", its termination announcement).
type StatusMsg struct {
	Phase     int
	HookIndex int
	Units     float64       // work units completed since the last contact
	Busy      time.Duration // busy time spent computing since the last contact
	MoveCost  time.Duration // measured cost of the last work movement
	InterCost time.Duration // measured cost of the previous interaction
	// Epoch is the recovery epoch this report belongs to (fault-tolerant
	// runs only); the master drops reports from earlier epochs.
	Epoch int
	// Dispatch accounting, reported with the termination announcement:
	// how many owned units ran through AOT-built native kernels, compiled
	// range kernels, or the tree interpreter (engine counters
	// aot_units / kernel_units / fallback_units).
	AotUnits      int64
	KernelUnits   int64
	FallbackUnits int64
	// Overlap accounting (engine counters overlap_rounds /
	// overlap_fallback): owned-loop executions that ran the split
	// interior/boundary schedule with ghost receives deferred past the
	// interior pass, and eligible exchange rounds that ended up effectively
	// synchronous at run time (drained with no interior work, or abandoned
	// by an epoch restart).
	OverlapRounds   int64
	OverlapFallback int64
	// CostBlocks summarizes the measured per-unit cost of the work this
	// report covers (learned cost model; nil under the uniform model).
	// Ranges are clamped to maxCostBlocks entries per report.
	CostBlocks []CostBlock
}

// InstrMsg is the master's reply: redistribution moves and the hook-skip
// count until the next contact.
type InstrMsg struct {
	Phase     int // the contact phase whose statuses produced this instruction
	HookIndex int
	Moves     []core.Move
	SkipHooks int
	Epoch     int // recovery epoch (fault-tolerant runs); stale instrs are dropped
	// CkptSeq pairs this instruction with the CheckpointRequestMsg sent
	// immediately before it (0: none). The slave answers exactly that
	// request after applying this instruction; matching by sequence — not
	// just mailbox order — keeps the cut consistent even when the master
	// races a full round ahead of a descheduled slave process.
	CkptSeq int
}

// GroupStatusMsg aggregates one group's per-member status reports (tag
// "gstatus") or termination announcements (tag "gdone"), assembled by the
// group leader so the master receives one message per group instead of
// one per slave. Ids and Statuses are aligned, member order ascending,
// leader first. Only the simulator relays: fault-tolerant runs, which every
// transport run is, report flat, so neither group envelope has a wire
// encoding.
type GroupStatusMsg struct {
	Group    int
	Ids      []int
	Statuses []StatusMsg
}

// GroupShiftMsg is the master's grouped reply (tag "ginstr"): the round's
// instruction, which the receiving leader relays to its members before
// applying it itself. The embedded instruction already carries both the
// intra-group rebalancing moves and the diffusive cross-boundary shifts —
// a shift is an ordinary adjacent move whose endpoints straddle a group
// boundary.
type GroupShiftMsg struct {
	Instr InstrMsg
}

// WorkMsg carries moved work units' data plus the ghost slices adjacent to
// the moved range (§4.5: moved iterations must arrive in a consistent
// state; shipping the sender's ghost data achieves that).
type WorkMsg struct {
	Units  []int
	Data   map[string][][]float64       // array -> slices aligned with Units
	Ghosts map[string]map[int][]float64 // array -> ghost unit -> slice
}

// SliceMsg is a pipeline, exchange, or broadcast transfer of (part of) one
// unit slice.
type SliceMsg struct {
	Unit         int
	RowLo, RowHi int // -1,-1 for a whole-unit transfer
	Vals         []float64
}

// InitMsg is the initial scatter: a slave's owned slices of each
// distributed array plus full copies of the replicated arrays.
type InitMsg struct {
	Owned      map[string]map[int][]float64
	Replicated map[string][]float64
}

// GatherMsg is the final collection of a slave's owned data.
type GatherMsg struct {
	Data map[string]map[int][]float64
	// Reduced carries the final combined values of reduction arrays
	// (reported by slave 0; identical on every slave after Combine).
	Reduced map[string][]float64
}

// Fault-tolerance messages (internal/fault subsystem). All are exchanged
// with the master only; slave-to-slave traffic is instead epoch-scoped by
// tag suffix so stale in-flight data from before a recovery is never
// consumed.

// HeartbeatMsg is a slave's lightweight sign of life, emitted at hook sites
// and while blocked in a receive, so the master can distinguish a crashed
// slave from one that is merely computing or waiting between contacts.
type HeartbeatMsg struct {
	Epoch     int
	Phase     int
	HookIndex int
}

// EvictMsg is sent by the master directly to a slave it has declared dead.
// A stalled slave that resumes after eviction (a "zombie") sees it at its
// next receive and terminates instead of corrupting the recovered epoch.
// It also shuts down joiner processes that were never admitted.
type EvictMsg struct {
	Epoch  int
	Reason string
}

// CheckpointRequestMsg asks every live slave for a snapshot at its next
// master contact. It is sent immediately before the round's InstrMsg, so
// FIFO delivery guarantees the slave observes it exactly when it consumes
// that instruction — the same hook on every slave, a consistent cut.
type CheckpointRequestMsg struct {
	Epoch int
	Seq   int
}

// CheckpointMsg is one slave's part of checkpoint Seq: its owned slices of
// the distributed arrays plus the cut's resume coordinates. Only the
// designated slave (lowest alive id, Meta) fills in the rest of the cut —
// ownership map, replicated arrays, reduction snapshots — which is
// identical on every slave.
type CheckpointMsg struct {
	fault.Cut
	Epoch int
	Slave int
	Meta  bool
	Owned map[string]map[int][]float64
	// Red holds this slave's reduction arrays: mid-interval partial
	// accumulations differ per slave and must be restored per slave.
	Red map[string][]float64
}

// FinAckMsg commits run completion: only after receiving it may a slave
// stop participating in recovery and ship its final data (a slave that
// announced "done" can still be rolled back if a peer died in the final
// round before the master saw every survivor finish).
type FinAckMsg struct {
	Epoch int
}

// JoinMsg announces an idle node asking to be folded into the computation.
type JoinMsg struct {
	Slave int
}

// AdoptMsg restarts a recovery epoch: every surviving (and newly admitted)
// slave restores the carried checkpoint state, fast-forwards its control
// flow to the checkpoint hook, and resumes. It is a full re-scatter, so
// slaves need not retain local snapshots. The cut is the committed one with
// its ownership map repaired (Hook -1: restart from the initial
// distribution).
type AdoptMsg struct {
	fault.Cut
	Epoch int
	Alive []bool
	Owned map[string]map[int][]float64 // this slave's units (plus needed ghosts) under the repaired map
	Red   map[string][]float64         // this slave's reduction arrays (dead slaves' deltas folded in)
}

const msgHeader = 32 // estimated fixed framing bytes per message

// msgBytes is a message's simulated size, the one input of the network
// model (cluster.TransferTime). A bulk payload costs msgHeader plus 8 bytes
// per float it carries, 16 more per unit-map entry and 9 per ownership-map
// entry; a control record is flat. A payload type without a size model is
// a bug at the call site, so it panics naming the type.
func msgBytes(data interface{}) int {
	switch m := data.(type) {
	case SliceMsg:
		return msgHeader + 8*len(m.Vals)
	case []float64:
		return msgHeader + 8*len(m)
	case StatusMsg, JoinMsg:
		return 64 // a StatusMsg's cost blocks are not charged
	case GroupStatusMsg:
		return 64 * len(m.Ids)
	case InstrMsg:
		n := 64
		for _, mv := range m.Moves {
			n += 16 + 8*len(mv.Units)
		}
		return n
	case GroupShiftMsg:
		return msgBytes(m.Instr)
	case HeartbeatMsg, CheckpointRequestMsg, EvictMsg:
		return 48
	case FinAckMsg:
		return 32
	case WorkMsg:
		n := 0
		for _, slices := range m.Data {
			for _, vals := range slices {
				n += len(vals)
			}
		}
		for _, ghosts := range m.Ghosts {
			n += floats(ghosts) // ghost entries carry no per-unit charge
		}
		return msgHeader + 8*n
	case InitMsg:
		return msgHeader + unitsBytes(m.Owned) + 8*floats(m.Replicated)
	case GatherMsg:
		return msgHeader + unitsBytes(m.Data) + 8*floats(m.Reduced)
	case CheckpointMsg:
		return msgHeader + 9*len(m.Owner) + unitsBytes(m.Owned) + 8*(floats(m.Red)+floats(m.Replicated)+floats(m.RedSnap))
	case AdoptMsg:
		return msgHeader + 9*len(m.Owner) + unitsBytes(m.Owned) + 8*(floats(m.Red)+floats(m.Replicated)+floats(m.RedSnap))
	}
	panic(fmt.Sprintf("dlb: no message size model for %T", data))
}

// unitsBytes is the size of a unit-slice map: 8 per float, 16 per entry.
func unitsBytes(m map[string]map[int][]float64) int {
	n := 0
	for _, units := range m {
		n += 8*floats(units) + 16*len(units)
	}
	return n
}

// floats counts the values in a map of slices.
func floats[K comparable](m map[K][]float64) int {
	n := 0
	for _, vals := range m {
		n += len(vals)
	}
	return n
}

// packUnits builds the unit-slice map a state-carrying message carries:
// every distributed array gets an entry, holding slice(arr, dim, u) for each
// of units. slicesOf is the source over live arrays; recovery reads the
// committed checkpoint instead.
func packUnits(dist map[string]int, units []int, slice func(arr string, dim, u int) []float64) map[string]map[int][]float64 {
	out := make(map[string]map[int][]float64, len(dist))
	for arr, dim := range dist {
		m := make(map[int][]float64, len(units))
		for _, u := range units {
			m[u] = slice(arr, dim, u)
		}
		out[arr] = m
	}
	return out
}

// slicesOf is packUnits' source over live arrays: a copy of each unit.
func slicesOf(arrays map[string]*loopir.Array) func(arr string, dim, u int) []float64 {
	return func(arr string, dim, u int) []float64 { return unitSlice(arrays[arr], dim, u) }
}

// installUnits writes a unit-slice map into arrays, the inverse of
// packUnits.
func installUnits(dist map[string]int, arrays map[string]*loopir.Array, m map[string]map[int][]float64) {
	for arr, units := range m {
		dim := dist[arr]
		for u, vals := range units {
			setUnitSlice(arrays[arr], dim, u, vals)
		}
	}
}

// copyArrays copies the named arrays whole: the replicated and reduction
// state a message carries beside its unit slices.
func copyArrays(arrays map[string]*loopir.Array, names []string) map[string][]float64 {
	out := make(map[string][]float64, len(names))
	for _, arr := range names {
		out[arr] = append([]float64(nil), arrays[arr].Data...)
	}
	return out
}

// cloneArrays deep-copies a map of whole-array copies.
func cloneArrays(m map[string][]float64) map[string][]float64 {
	out := make(map[string][]float64, len(m))
	for arr, vals := range m {
		out[arr] = append([]float64(nil), vals...)
	}
	return out
}

// reductionArrays names the plan's reduction arrays.
func reductionArrays(p *compile.Plan) []string {
	names := make([]string, len(p.Reductions))
	for i, r := range p.Reductions {
		names[i] = r.Array
	}
	return names
}

// installArrays writes whole-array copies back, the inverse of copyArrays.
func installArrays(arrays map[string]*loopir.Array, m map[string][]float64) {
	for arr, vals := range m {
		copy(arrays[arr].Data, vals)
	}
}

// unitSize returns the number of elements in one distributed slice of the
// array.
func unitSize(a *loopir.Array, dim int) int {
	return len(a.Data) / a.Dims[dim]
}

// unitSlice copies the elements of the array with index dim fixed at u, in
// canonical (row-major, dim removed) order.
func unitSlice(a *loopir.Array, dim, u int) []float64 {
	return gatherUnit(make([]float64, 0, unitSize(a, dim)), a, dim, u, -1, 0, 0)
}

// setUnitSlice writes a slice produced by unitSlice back at index u.
func setUnitSlice(a *loopir.Array, dim, u int, vals []float64) {
	scatterUnit(a, dim, u, -1, 0, 0, vals)
}

// unitSliceRows copies the elements with index dim = u and rowDim in
// [rowLo, rowHi).
func unitSliceRows(a *loopir.Array, dim, u, rowDim, rowLo, rowHi int) []float64 {
	return gatherUnit(nil, a, dim, u, rowDim, rowLo, rowHi)
}

// setUnitSliceRows writes back a slice produced by unitSliceRows.
func setUnitSliceRows(a *loopir.Array, dim, u, rowDim, rowLo, rowHi int, vals []float64) {
	scatterUnit(a, dim, u, rowDim, rowLo, rowHi, vals)
}

// runShape is the contiguous-run decomposition of a unit selection: the
// canonical-order walk visits runs of n consecutive elements, one per
// combination of the outer loop counters (outermost first), each starting
// at off + Σ v_i·stride_i.
type runShape struct {
	off, n int
	outer  []outerLoop
}

type outerLoop struct{ lo, hi, stride int }

// total is the element count of the whole selection.
func (sh *runShape) total() int {
	t := sh.n
	for _, l := range sh.outer {
		t *= l.hi - l.lo
	}
	return t
}

// eachRun calls fn with the start offset of every run, in canonical order:
// an odometer over the outer counters, innermost fastest.
func (sh *runShape) eachRun(fn func(off int)) {
	if sh.total() == 0 {
		return
	}
	ctr := make([]int, len(sh.outer))
	off := sh.off
	for i, l := range sh.outer {
		ctr[i] = l.lo
		off += l.lo * l.stride
	}
	for {
		fn(off)
		d := len(ctr) - 1
		for ; d >= 0; d-- {
			l := sh.outer[d]
			ctr[d]++
			off += l.stride
			if ctr[d] < l.hi {
				break
			}
			ctr[d] = l.lo
			off -= (l.hi - l.lo) * l.stride
		}
		if d < 0 {
			return
		}
	}
}

// unitRuns computes the run decomposition for the selection (dim = u,
// optionally rowDim in [rowLo, rowHi)). The innermost dim that breaks
// contiguity is k = max(dim, restricted rowDim): everything after k is
// iterated fully, so each setting of the dims up to k yields one contiguous
// run — Stride[dim] elements at u·Stride[dim] when k == dim,
// (hi−lo)·Stride[k] elements starting at lo·Stride[k] when k == rowDim.
// Dims before k (minus the fixed dim) become the outer loops, appended to
// outer: callers pass stack storage for two, which covers every array of
// rank ≤ 3 without allocating. A row range on dim itself restricts
// nothing: that index is already pinned to u.
func unitRuns(outer []outerLoop, a *loopir.Array, dim, u, rowDim, rowLo, rowHi int) runShape {
	if rowDim == dim {
		rowDim = -1
	}
	k := dim
	lo, hi := 0, 0
	if rowDim >= 0 {
		lo, hi = rowLo, rowHi
		if lo < 0 {
			lo = 0
		}
		if hi > a.Dims[rowDim] {
			hi = a.Dims[rowDim]
		}
		if hi < lo {
			hi = lo
		}
		if rowDim > k {
			k = rowDim
		}
	}
	sh := runShape{off: u * a.Stride[dim], n: a.Stride[dim]}
	if rowDim == k && rowDim >= 0 {
		sh.off += lo * a.Stride[k]
		sh.n = (hi - lo) * a.Stride[k]
	}
	for d := 0; d < k; d++ {
		if d == dim {
			continue
		}
		l := outerLoop{0, a.Dims[d], a.Stride[d]}
		if d == rowDim {
			l.lo, l.hi = lo, hi
		}
		outer = append(outer, l)
	}
	sh.outer = outer
	return sh
}

// gatherUnit appends the selection to dst using contiguous copies (or a
// tight strided loop when runs are single elements, the column-distributed
// 2D case). Up to two outer loops — every array of rank ≤ 3 — are written
// out; deeper selections go through the odometer.
func gatherUnit(dst []float64, a *loopir.Array, dim, u, rowDim, rowLo, rowHi int) []float64 {
	var buf [2]outerLoop
	sh := unitRuns(buf[:0], a, dim, u, rowDim, rowLo, rowHi)
	switch len(sh.outer) {
	case 0:
		return append(dst, a.Data[sh.off:sh.off+sh.n]...)
	case 1:
		l, h, s := sh.outer[0].lo, sh.outer[0].hi, sh.outer[0].stride
		if sh.n == 1 {
			i := len(dst)
			dst = append(dst, make([]float64, h-l)...)
			col := a.Data[sh.off:]
			for v := l; v < h; v++ {
				dst[i] = col[v*s]
				i++
			}
			return dst
		}
		for v := l; v < h; v++ {
			o := sh.off + v*s
			dst = append(dst, a.Data[o:o+sh.n]...)
		}
		return dst
	case 2:
		o0, o1 := sh.outer[0], sh.outer[1]
		for v0 := o0.lo; v0 < o0.hi; v0++ {
			b0 := sh.off + v0*o0.stride
			for v1 := o1.lo; v1 < o1.hi; v1++ {
				o := b0 + v1*o1.stride
				dst = append(dst, a.Data[o:o+sh.n]...)
			}
		}
		return dst
	}
	sh.eachRun(func(o int) { dst = append(dst, a.Data[o:o+sh.n]...) })
	return dst
}

// scatterUnit writes vals over the selection with contiguous copies, the
// inverse of gatherUnit.
func scatterUnit(a *loopir.Array, dim, u, rowDim, rowLo, rowHi int, vals []float64) {
	var buf [2]outerLoop
	sh := unitRuns(buf[:0], a, dim, u, rowDim, rowLo, rowHi)
	if sh.total() != len(vals) {
		panic(fmt.Sprintf("dlb: slice length %d does not match selection %d", len(vals), sh.total()))
	}
	switch len(sh.outer) {
	case 0:
		copy(a.Data[sh.off:sh.off+sh.n], vals)
		return
	case 1:
		l, h, s := sh.outer[0].lo, sh.outer[0].hi, sh.outer[0].stride
		if sh.n == 1 {
			col := a.Data[sh.off:]
			for i, v := 0, l; v < h; v++ {
				col[v*s] = vals[i]
				i++
			}
			return
		}
		i := 0
		for v := l; v < h; v++ {
			o := sh.off + v*s
			copy(a.Data[o:o+sh.n], vals[i:])
			i += sh.n
		}
		return
	case 2:
		o0, o1 := sh.outer[0], sh.outer[1]
		i := 0
		for v0 := o0.lo; v0 < o0.hi; v0++ {
			b0 := sh.off + v0*o0.stride
			for v1 := o1.lo; v1 < o1.hi; v1++ {
				o := b0 + v1*o1.stride
				copy(a.Data[o:o+sh.n], vals[i:])
				i += sh.n
			}
		}
		return
	}
	i := 0
	sh.eachRun(func(o int) {
		copy(a.Data[o:o+sh.n], vals[i:])
		i += sh.n
	})
}

// ghostNeeds lists the units (ascending) that slave me must receive to
// satisfy reads at the given distributed-dimension offset: units g = j +
// delta read by my active owned units j but owned elsewhere. OwnedActive
// yields ascending distinct units, so g = j + delta is already ascending
// and distinct — no dedup or sort needed.
func ghostNeeds(o *core.Ownership, me, delta int) []int {
	var out []int
	for _, j := range o.OwnedActive(me) {
		g := j + delta
		if g < 0 || g >= o.Units() || o.OwnerOf(g) == me {
			continue
		}
		out = append(out, g)
	}
	return out
}

// ghostSupply lists (ascending by unit) the units slave me must send, with
// their destinations: units g owned by me whose reader j = g − delta is an
// active unit owned by another slave.
type supply struct {
	Unit int
	To   int
}

func ghostSupplies(o *core.Ownership, me, delta int) []supply {
	// Owned yields ascending distinct units, and each unit has exactly one
	// reader j = g − delta, so the (Unit, To) pairs are unique and already
	// in canonical order — no dedup or sort needed.
	var out []supply
	for _, g := range o.Owned(me) {
		j := g - delta
		if j < 0 || j >= o.Units() || !o.IsActive(j) {
			continue
		}
		to := o.OwnerOf(j)
		if to == me {
			continue
		}
		out = append(out, supply{Unit: g, To: to})
	}
	return out
}

// contiguousRuns decomposes an ascending unit list intersected with
// [lo, hi) into maximal [start, end) runs.
func contiguousRuns(units []int, lo, hi int) [][2]int {
	var runs [][2]int
	for i := 0; i < len(units); {
		u := units[i]
		if u < lo {
			i++
			continue
		}
		if u >= hi {
			break
		}
		start := u
		end := u + 1
		i++
		for i < len(units) && units[i] == end && end < hi {
			end++
			i++
		}
		runs = append(runs, [2]int{start, end})
	}
	return runs
}
