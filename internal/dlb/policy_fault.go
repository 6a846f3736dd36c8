package dlb

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
)

// ftPolicy is the master-side fault-tolerance layer: lease-based failure
// detection, periodic consistent checkpoints, recovery epochs, and elastic
// admission of late-joining nodes — the paper's runtime extended exactly as
// resizable-computation work treats it: a policy over the execution core,
// not a second runtime.
type ftPolicy struct {
	log *fault.Log
	// resume, when set, seeds the run from a carried-in checkpoint (a
	// preempted run continuing under a fresh master) instead of the
	// synthetic checkpoint 0; Started consumes it by opening a recovery
	// epoch before the first round.
	resume *fault.Checkpoint

	det        *fault.Detector
	pol        fault.CkptPolicy
	ck         *fault.Checkpoint // latest committed snapshot
	pending    *pendingCkpt
	seq        int
	lastCkptAt time.Duration

	epoch       int
	inbox       map[int][]slaveEvent // per-slave FIFO of round events
	alive       []bool               // len total
	admitted    []bool               // joiner slots folded into the ownership map
	queued      []bool               // joiner slots waiting for admission
	joinQueue   []int
	wantCkpt    bool      // a join forces a fresh checkpoint
	lastRates   []float64 // last filtered rates: reassignment weights
	lastRoundAt time.Duration
	epochRounds int // contact rounds since the current epoch started
}

// pendingCkpt collects the parts of an in-flight checkpoint.
type pendingCkpt struct {
	seq   int
	want  []int // the alive participants when the request went out
	parts map[int]CheckpointMsg
}

// slaveEvent is one entry of a slave's round stream: a status report or its
// termination announcement.
type slaveEvent struct {
	st   StatusMsg
	done bool
}

func (p *ftPolicy) Init(e *engine) {
	p.alive = make([]bool, e.total)
	for i := 0; i < e.initial; i++ {
		p.alive[i] = true
	}
	p.inbox = map[int][]slaveEvent{}
	p.admitted = make([]bool, e.total)
	p.queued = make([]bool, e.total)
	p.det = fault.NewDetector(e.cfg.Detect, e.total)
	p.pol = e.cfg.Ckpt
	if p.resume != nil {
		p.ck = p.resume
		p.seq = p.resume.Seq
	} else {
		p.initialCkpt(e)
	}
}

func (p *ftPolicy) Started(e *engine) {
	now := e.ep.Now()
	p.det.Reset(now)
	p.lastCkptAt = now
	p.lastRoundAt = now
	if p.resume != nil {
		// Resuming a preempted run: the first act of the epoch is a
		// recovery from the carried-in snapshot — the same path a failure
		// takes, with nobody dead. The recovery AdoptMsg re-ships every
		// slave's state and fast-forwards it to the cut hook; the empty
		// scatter that preceded it is discarded.
		p.resume = nil
		p.recoverFrom(e, nil, nil)
	}
}

// initialCkpt builds the synthetic checkpoint 0 from the master's initial
// arrays: a recovery before the first committed snapshot restarts the whole
// computation (Hook -1, no fast-forward).
func (p *ftPolicy) initialCkpt(e *engine) {
	ck := &fault.Checkpoint{Cut: fault.Cut{Hook: -1, Slaves: e.own.Slaves()}}
	ck.Owner, ck.Active = e.own.Snapshot()
	all := make([]int, e.exec.Units)
	for u := range all {
		all[u] = u
	}
	ck.Dist = packUnits(e.plan.DistArrays, all, slicesOf(e.inst.Arrays))
	ck.Replicated = copyArrays(e.inst.Arrays, e.plan.Replicated)
	ck.RedSnap = copyArrays(e.inst.Arrays, reductionArrays(e.plan))
	ck.Red = map[int]map[string][]float64{}
	for s := 0; s < e.own.Slaves(); s++ {
		ck.Red[s] = cloneArrays(ck.RedSnap)
	}
	p.ck = ck
}

// Participants lists the alive slaves of the current membership, ascending.
func (p *ftPolicy) Participants(e *engine) []int {
	var out []int
	for id := 0; id < e.own.Slaves(); id++ {
		if p.alive[id] {
			out = append(out, id)
		}
	}
	return out
}

func (p *ftPolicy) Epoch() int { return p.epoch }

func (p *ftPolicy) RoundObserved(e *engine) {
	now := e.ep.Now()
	p.det.ObserveInterval(now - p.lastRoundAt)
	p.lastRoundAt = now
}

func (p *ftPolicy) NoteRates(rates []float64) { p.lastRates = rates }

func (p *ftPolicy) RoundSent(*engine) { p.epochRounds++ }

// CollectRound gathers one full round of status reports. While waiting it
// processes heartbeats, checkpoint parts and join requests, and evicts
// slaves whose lease expires.
func (p *ftPolicy) CollectRound(e *engine) (map[int]StatusMsg, bool) {
	raw := map[int]StatusMsg{}
	dones := 0
	for {
		// Pop queued round events, at most one per slave: the pump receives
		// from AnySource, so a fast slave's next-round status (or its done)
		// can arrive while this round is still collecting. The per-slave FIFO
		// restores the round alignment a per-slave Recv would give.
		for _, id := range p.Participants(e) {
			if e.done[id] {
				continue
			}
			if _, got := raw[id]; got {
				continue
			}
			q := p.inbox[id]
			if len(q) == 0 {
				continue
			}
			ev := q[0]
			p.inbox[id] = q[1:]
			if ev.done {
				if len(raw) > 0 {
					panic("dlb: slave schedules diverged (mixed status/done round)")
				}
				dones++
				e.markDone(id, ev.st)
				// The computation ended before the next contact hook, so an
				// outstanding checkpoint request will never be answered.
				p.pending = nil
			} else {
				if dones > 0 {
					panic("dlb: slave schedules diverged (mixed status/done round)")
				}
				raw[id] = ev.st
			}
		}
		missing := p.missingFrom(e, raw)
		if len(missing) == 0 {
			if e.remaining() == 0 {
				return nil, true
			}
			return raw, true
		}
		wait := p.det.Deadline(missing[0]) - e.ep.Now()
		for _, id := range missing[1:] {
			if d := p.det.Deadline(id) - e.ep.Now(); d < wait {
				wait = d
			}
		}
		if wait > 0 {
			if msg, ok := recvTimeout(e.ep, cluster.AnySource, "", wait); ok {
				if p.handleMsg(e, msg) {
					return nil, false
				}
				continue
			}
		} else if msg, ok := e.ep.TryRecv(cluster.AnySource, ""); ok {
			// Deadlines passed, but drain already-delivered traffic first: a
			// sign of life may be sitting in the mailbox.
			if p.handleMsg(e, msg) {
				return nil, false
			}
			continue
		}
		if dead := p.det.Expired(e.ep.Now(), missing); len(dead) > 0 {
			p.recoverFrom(e, dead, nil)
			return nil, false
		}
	}
}

// missingFrom lists participants whose status for this round is still
// outstanding (done slaves only heartbeat; they are watched via gather).
func (p *ftPolicy) missingFrom(e *engine, raw map[int]StatusMsg) []int {
	var out []int
	for _, id := range p.Participants(e) {
		if e.done[id] {
			continue
		}
		if _, ok := raw[id]; !ok {
			out = append(out, id)
		}
	}
	return out
}

// handleMsg processes one message during round collection. Status and done
// messages are queued per slave (CollectRound pops them round-aligned); the
// function returns true when the message triggered a recovery (so the caller
// must void the round).
func (p *ftPolicy) handleMsg(e *engine, msg cluster.Msg) bool {
	now := e.ep.Now()
	from := msg.From
	aliveFrom := from >= 0 && from < len(p.alive) && p.alive[from]
	switch msg.Tag {
	case "status":
		st := msg.Data.(StatusMsg)
		if !aliveFrom {
			return false // a zombie's report; its eviction is in flight
		}
		p.det.Observe(from, now)
		if st.Epoch != p.epoch {
			return false // stale pre-recovery report
		}
		p.inbox[from] = append(p.inbox[from], slaveEvent{st: st})
	case "done":
		st := msg.Data.(StatusMsg)
		if !aliveFrom {
			return false
		}
		p.det.Observe(from, now)
		if st.Epoch != p.epoch {
			return false
		}
		p.inbox[from] = append(p.inbox[from], slaveEvent{st: st, done: true})
	case "hb":
		if aliveFrom {
			p.det.Observe(from, now)
		}
	case "ckpt":
		part := msg.Data.(CheckpointMsg)
		if !aliveFrom {
			return false
		}
		p.det.Observe(from, now)
		if part.Epoch != p.epoch || p.pending == nil || part.Seq != p.pending.seq {
			return false
		}
		p.pending.parts[part.Slave] = part
		if len(p.pending.parts) == len(p.pending.want) {
			p.commitCkpt(e)
			if len(p.joinQueue) > 0 {
				// Admission rides on the snapshot just taken: survivors roll
				// back only to the state of a moment ago.
				js := p.joinQueue
				p.joinQueue = nil
				p.recoverFrom(e, nil, js)
				return true
			}
		}
	case "join":
		j := msg.Data.(JoinMsg)
		if j.Slave >= e.initial && j.Slave < e.total && !p.admitted[j.Slave] && !p.queued[j.Slave] {
			p.queued[j.Slave] = true
			p.joinQueue = append(p.joinQueue, j.Slave)
			p.wantCkpt = true
			p.log.Add(now, fault.LogJoin, j.Slave, "registered, awaiting admission")
		}
	default:
		panic(fmt.Sprintf("dlb: master: unexpected tag %q from %d", msg.Tag, from))
	}
	return false
}

// CheckpointSeq decides whether a checkpoint request precedes this round's
// instruction: FIFO delivery pins the consistent cut to the hook where the
// instruction is consumed. It can only ride on rounds whose instruction the
// slaves actually consume — pipelined phase 0 and the first post-recovery
// contact are skipped.
func (p *ftPolicy) CheckpointSeq(e *engine, phase int, ids []int) int {
	consumed := e.cfg.Synchronous || (phase > 0 && (p.epochRounds > 0 || p.ck.Hook < 0))
	if !consumed || p.pending != nil || e.doneCount != 0 {
		return 0
	}
	// lastRoundAt is this round's observation time (set pre-charge by
	// RoundObserved), matching the clock the commit stamps lastCkptAt with.
	// A pending preemption forces a cut at the first eligible round — the
	// stop snapshot should be as fresh as the protocol allows. Under the
	// learned cost model the "time since last checkpoint" the policy
	// throttles on is replaced by the weighted work at risk converted to
	// time at the current aggregate rate: on irregular programs wall time
	// between rounds is a poor proxy for how much recomputation a failure
	// would cost.
	at := p.lastRoundAt
	if rt, ok := e.riskTime(); ok {
		at = p.lastCkptAt + rt
	}
	if !p.wantCkpt && !e.cfg.Preempt.Requested() && !p.pol.Should(at, p.lastCkptAt, e.setup.ckptCost) {
		return 0
	}
	p.seq++
	p.wantCkpt = false
	p.pending = &pendingCkpt{seq: p.seq, want: ids, parts: map[int]CheckpointMsg{}}
	for _, id := range ids {
		e.ep.Send(id, "ckptreq", CheckpointRequestMsg{Epoch: p.epoch, Seq: p.seq})
	}
	return p.seq
}

// commitCkpt merges the collected parts into the new authoritative
// checkpoint: the designated part's cut, and every part's own state.
func (p *ftPolicy) commitCkpt(e *engine) {
	pk := p.pending
	p.pending = nil
	now := e.ep.Now()
	var cut *fault.Cut
	hook := -2
	for _, id := range pk.want {
		part := pk.parts[id]
		if hook == -2 {
			hook = part.Hook
		} else if part.Hook != hook {
			panic(fmt.Sprintf("dlb: inconsistent checkpoint cut: hooks %d and %d", hook, part.Hook))
		}
		if part.Meta {
			cut = &part.Cut
		}
	}
	if cut == nil {
		panic("dlb: checkpoint committed without a designated meta part")
	}
	ck := &fault.Checkpoint{
		Cut:  *cut,
		At:   now,
		Dist: map[string]map[int][]float64{},
		Red:  map[int]map[string][]float64{},
	}
	for arr := range e.plan.DistArrays {
		ck.Dist[arr] = map[int][]float64{}
	}
	for _, id := range pk.want {
		part := pk.parts[id]
		for arr, units := range part.Owned {
			for u, vals := range units {
				ck.Dist[arr][u] = vals
			}
		}
		if part.Red != nil {
			ck.Red[id] = part.Red
		}
	}
	for arr, units := range ck.Dist {
		if len(units) != e.exec.Units {
			panic(fmt.Sprintf("dlb: checkpoint %d covers %d/%d units of %s", pk.seq, len(units), e.exec.Units, arr))
		}
	}
	p.ck = ck
	e.res.Checkpoints++
	p.lastCkptAt = now
	e.wRisk = 0 // the committed cut retires the weighted work at risk
	p.log.Add(now, fault.LogCheckpoint, -1, "seq %d committed at hook %d", pk.seq, ck.Hook)
	if e.cfg.Preempt.Requested() {
		p.stopForPreemption(e)
	}
}

// stopForPreemption releases the cluster right after a checkpoint commit:
// every participant (and every never-admitted joiner slot) is evicted, the
// snapshot is published on the Result, and the master loop unwinds with
// ErrPreempted. The evicted slaves see an ordinary eviction — on netrun
// the daemon session ends with ErrEvicted and the slave is immediately
// free for a new lease.
func (p *ftPolicy) stopForPreemption(e *engine) {
	now := e.ep.Now()
	for _, id := range p.Participants(e) {
		e.ep.Send(id, "evict", EvictMsg{Epoch: p.epoch, Reason: "preempted"})
	}
	for slot := e.initial; slot < e.total; slot++ {
		if !p.admitted[slot] {
			e.ep.Send(slot, "evict", EvictMsg{Epoch: p.epoch, Reason: "preempted"})
		}
	}
	e.res.Checkpoint = p.ck
	p.log.Add(now, fault.LogEvict, -1, "preempted: released at checkpoint %d (hook %d)", p.ck.Seq, p.ck.Hook)
	panic(preemptStop{})
}

// recoverFrom starts a recovery epoch: evict newDead, rebuild the ownership
// map from the committed checkpoint (repairing dead slots and folding in
// admitted joiners), rebuild the balancer, and re-scatter the checkpoint
// state with AdoptMsgs. With no slave left alive it fails the run instead
// (e.err = ErrNoSurvivors; the caller's round is void either way).
func (p *ftPolicy) recoverFrom(e *engine, newDead, admitIDs []int) {
	now := e.ep.Now()
	for _, dd := range newDead {
		p.alive[dd] = false
		if e.done[dd] {
			e.done[dd] = false
			e.doneCount--
		}
		e.ep.Send(dd, "evict", EvictMsg{Epoch: p.epoch, Reason: "lease expired"})
		e.res.Evicted = append(e.res.Evicted, dd)
		p.log.Add(now, fault.LogEvict, dd, "lease %.2fs expired", p.det.Lease().Seconds())
	}
	p.epoch++
	ck := p.ck

	own := core.OwnershipFromMap(ck.Owner, ck.Active, ck.Slaves)
	// Re-grow the map for slots admitted since the snapshot, then fold in
	// the new admissions. Joiner slots are numbered in registration-time
	// order, so admission in id order keeps ownership slot == cluster id; a
	// gap (an earlier joiner not yet registered) defers the later ones.
	for slot := ck.Slaves; slot < e.total; slot++ {
		if p.admitted[slot] {
			own.AddSlave()
			continue
		}
		wanted := false
		for _, j := range admitIDs {
			if j == slot {
				wanted = true
			}
		}
		if !wanted {
			break
		}
		own.AddSlave()
		p.admitted[slot] = true
		p.alive[slot] = true
		e.res.Joined = append(e.res.Joined, slot)
		p.log.Add(now, fault.LogAdopt, slot, "admitted into epoch %d", p.epoch)
	}
	for _, j := range admitIDs {
		if !p.admitted[j] {
			p.joinQueue = append(p.joinQueue, j) // blocked by a gap; retry later
		}
	}

	slots := own.Slaves()
	aliveMask := append([]bool(nil), p.alive[:slots]...)
	anyAlive := false
	for _, a := range aliveMask {
		anyAlive = anyAlive || a
	}
	if !anyAlive {
		// Nobody is left to adopt the checkpoint: the run fails. The dead
		// were evicted above; release the joiners still waiting.
		p.releaseJoiners(e, "run failed")
		e.err = ErrNoSurvivors
		return
	}
	for dd := 0; dd < slots; dd++ {
		if !p.alive[dd] && len(own.Owned(dd)) > 0 {
			if _, err := core.ReassignDead(own, dd, e.plan.Restricted, p.lastRates, aliveMask); err != nil {
				panic(fmt.Sprintf("dlb: recovery: %v", err))
			}
		}
	}
	e.own = own
	// Fresh balancer: the rate-filter history and the measured move and
	// interaction costs predate the rollback.
	e.bal = e.setup.newBalancerFor(own, slots)
	e.bal.SetAlive(aliveMask)

	clear(e.done)
	clear(e.tallies)
	e.doneCount = 0
	p.inbox = map[int][]slaveEvent{} // queued events predate the epoch bump
	p.pending = nil
	p.wantCkpt = len(p.joinQueue) > 0
	p.lastCkptAt = now
	p.epochRounds = 0

	cut := ck.Cut
	cut.Slaves = slots
	cut.Owner, cut.Active = own.Snapshot()
	fromCkpt := func(arr string, _, u int) []float64 { return ck.Dist[arr][u] }
	for _, id := range p.Participants(e) {
		// The slave's units plus its ghosts under the repaired map, from the
		// cut-time owners: exchange ghosts are same-row reads of
		// previous-sweep values, which the snapshot preserves; pipeline
		// ghosts are re-supplied by re-execution. A unit listed twice is
		// packed once.
		units := own.Owned(id)
		for _, delta := range e.plan.GhostDeltas {
			units = append(units, ghostNeeds(own, id, delta)...)
		}
		adopt := AdoptMsg{
			Cut:   cut,
			Epoch: p.epoch,
			Alive: append([]bool(nil), aliveMask...),
			Owned: packUnits(e.plan.DistArrays, units, fromCkpt),
		}
		if len(e.plan.Reductions) > 0 {
			adopt.Red = p.redFor(id, ck, aliveMask)
		}
		e.ep.Send(id, "recover", adopt)
	}
	e.res.Recoveries++
	p.log.Add(now, fault.LogRecover, -1, "epoch %d from checkpoint %d (hook %d)", p.epoch, ck.Seq, ck.Hook)
	p.det.Reset(now)
	p.lastRoundAt = now
}

// redFor builds one slave's restored reduction arrays. Mid-interval partial
// accumulations differ per slave, so each slave gets its own snapshot back;
// the deltas dead slaves had accumulated since the last Combine are folded
// into the lowest-id survivor so the epoch's next Combine still totals the
// same sum. Joiners start at the shared snapshot (delta zero).
func (p *ftPolicy) redFor(id int, ck *fault.Checkpoint, alive []bool) map[string][]float64 {
	base, ok := ck.Red[id]
	if !ok {
		base = ck.RedSnap
	}
	out := cloneArrays(base)
	lowest := -1
	for i, a := range alive {
		if a {
			lowest = i
			break
		}
	}
	if id == lowest {
		for dd := 0; dd < len(alive); dd++ {
			if alive[dd] {
				continue
			}
			red, ok := ck.Red[dd]
			if !ok {
				continue
			}
			for arr, vals := range red {
				snap := ck.RedSnap[arr]
				dst := out[arr]
				for i := range vals {
					dst[i] += vals[i] - snap[i]
				}
			}
		}
	}
	return out
}

// Commit releases the membership: from here on no recovery is possible, so
// slaves may ship their final data and stop (see FinAckMsg).
func (p *ftPolicy) Commit(e *engine) {
	for id := 0; id < e.own.Slaves(); id++ {
		if p.alive[id] {
			e.ep.Send(id, "finack", FinAckMsg{Epoch: p.epoch})
		}
	}
	p.releaseJoiners(e, "run complete")
}

// releaseJoiners evicts joiner processes that were never admitted
// (including ones that have not registered yet: the eviction waits in
// their mailbox).
func (p *ftPolicy) releaseJoiners(e *engine, reason string) {
	for slot := e.initial; slot < e.total; slot++ {
		if !p.admitted[slot] {
			e.ep.Send(slot, "evict", EvictMsg{Epoch: p.epoch, Reason: reason})
		}
	}
}

func (p *ftPolicy) GatherTimeout(*engine) time.Duration { return 2 * p.det.Lease() }

// ftSlaveFault is the slave-side fault-tolerance layer.
//
// Epoch scoping: slave-to-slave tags carry an "@<epoch>" suffix, so data
// that was in flight when a recovery rolled the computation back can never
// be consumed by the restarted epoch — the receiver's tag no longer
// matches. Master-bound messages carry an Epoch field instead and are
// filtered by the receiver.
type ftSlaveFault struct{}

func (ftSlaveFault) commTag(s *slave, tag string) string {
	t, ok := s.epochTags[tag]
	if !ok {
		t = tag + "@" + strconv.Itoa(s.epoch)
		s.epochTags[tag] = t
	}
	return t
}

func (f ftSlaveFault) recvPeer(s *slave, from int, tag string) cluster.Msg {
	return f.recvFT(s, from, f.commTag(s, tag))
}

// recvFT is the fault-tolerant blocking receive: it polls for the wanted
// message while watching for master control traffic — an EvictMsg (this
// slave was declared dead while stalled; die instead of corrupting the
// recovered epoch) or an AdoptMsg (a recovery epoch restart, which unwinds
// the execution stack back to the epoch loop). It also emits heartbeats
// while blocked, so a slave waiting on a slow peer is never mistaken for a
// crashed one.
func (f ftSlaveFault) recvFT(s *slave, from int, tag string) cluster.Msg {
	poll := s.ep.PollInterval()
	for {
		if _, ok := s.ep.TryRecv(cluster.MasterID, "evict"); ok {
			panic(evictExit{})
		}
		if m, ok := s.ep.TryRecv(cluster.MasterID, "recover"); ok {
			panic(epochRestart{m.Data.(AdoptMsg)})
		}
		if m, ok := s.ep.TryRecv(from, tag); ok {
			return m
		}
		f.heartbeat(s)
		s.ep.Sleep(poll)
	}
}

func (f ftSlaveFault) recvInstr(s *slave) InstrMsg {
	for {
		instr := f.recvFT(s, cluster.MasterID, "instr").Data.(InstrMsg)
		if instr.Epoch == s.epoch {
			return instr
		}
		// Stale pre-recovery instruction still in flight: drop it.
	}
}

// heartbeat sends a sign of life if one is due. Called at hook sites and
// from blocked-receive poll loops.
func (ftSlaveFault) heartbeat(s *slave) {
	now := s.ep.Now()
	if now-s.lastHB < s.hbEvery {
		return
	}
	s.lastHB = now
	s.ep.Send(cluster.MasterID, "hb", HeartbeatMsg{Epoch: s.epoch, Phase: s.phase, HookIndex: s.hookVisit})
}

func (ftSlaveFault) peerAlive(s *slave, o int) bool { return s.alive == nil || s.alive[o] }

func (f ftSlaveFault) designated(s *slave) bool {
	for o := 0; o < s.slaves; o++ {
		if f.peerAlive(s, o) {
			return o == s.id
		}
	}
	return false
}

// checkpoint answers the CheckpointRequestMsg paired with the instruction
// just consumed and applied at hook hv (wantSeq, from InstrMsg.CkptSeq; 0
// means none rode with it). Every slave consumes the paired instruction at
// the same hook visit, so answering exactly that request — rather than
// whatever request happens to be in the mailbox — yields a consistent cut
// (no slave-to-slave message is ever in flight across identical schedule
// positions) even when the master has already raced ahead and issued the
// next round's request before this process was scheduled. FIFO delivery
// puts the request ahead of its instruction, so a wanted request is already
// present; absence would be a transport-ordering bug, surfaced by the
// blocking poll below rather than a corrupt snapshot.
func (f ftSlaveFault) checkpoint(s *slave, hv, wantSeq int) {
	if wantSeq == 0 {
		return
	}
	var req CheckpointRequestMsg
	for {
		// recvFT keeps heartbeats flowing and honors evict/recover while
		// waiting (the wanted request is normally already in the mailbox).
		req = f.recvFT(s, cluster.MasterID, "ckptreq").Data.(CheckpointRequestMsg)
		if req.Epoch == s.epoch && req.Seq == wantSeq {
			break
		}
		// Stale pre-recovery or superseded request: drop and keep waiting.
	}
	plan := s.exec.Plan
	ck := CheckpointMsg{
		Cut:   fault.Cut{Seq: req.Seq, Hook: hv, Phase: s.phase, NextContact: s.nextContact},
		Epoch: s.epoch,
		Slave: s.id,
		Owned: packUnits(plan.DistArrays, s.own.Owned(s.id), slicesOf(s.inst.Arrays)),
	}
	// Per-slave reduction state: mid-interval partial accumulations
	// differ across slaves and must be restored per slave.
	if len(plan.Reductions) > 0 {
		ck.Red = copyArrays(s.inst.Arrays, reductionArrays(plan))
	}
	if f.designated(s) {
		ck.Meta = true
		ck.Slaves = s.own.Slaves()
		ck.Owner, ck.Active = s.own.Snapshot()
		ck.Replicated = copyArrays(s.inst.Arrays, plan.Replicated)
		ck.RedSnap = cloneArrays(s.redSnap)
	}
	s.ep.Send(cluster.MasterID, "ckpt", ck)
}

// runEpoch executes the step tree once. An epochRestart panic — raised by
// recvFT when a recovery AdoptMsg arrives — is caught here, the checkpoint
// state is restored, and false is returned so the caller re-enters the tree
// (fast-forwarding to the checkpoint hook).
func (f ftSlaveFault) runEpoch(s *slave) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			er, ok := r.(epochRestart)
			if !ok {
				panic(r)
			}
			s.applyRecover(er.msg)
		}
	}()
	s.runTree()
	// Wait for the master to commit completion: a slave that finished can
	// still be rolled back (recvFT catches the AdoptMsg) if a peer died
	// before the master saw every survivor's "done".
	f.recvFT(s, cluster.MasterID, "finack")
	return true
}

// join registers this idle node with the master at joinAt and waits for
// admission (an AdoptMsg folding it into a recovery epoch). It returns
// false if the run ended first (the master's shutdown EvictMsg).
func (ftSlaveFault) join(s *slave) bool {
	for d := s.joinAt - s.ep.Now(); d > 0; d = s.joinAt - s.ep.Now() {
		s.ep.Sleep(d)
	}
	s.ep.Send(cluster.MasterID, "join", JoinMsg{Slave: s.id})
	poll := s.ep.PollInterval()
	for {
		if _, ok := s.ep.TryRecv(cluster.MasterID, "evict"); ok {
			return false
		}
		if m, ok := s.ep.TryRecv(cluster.MasterID, "recover"); ok {
			s.applyRecover(m.Data.(AdoptMsg))
			return true
		}
		s.ep.Sleep(poll)
	}
}
