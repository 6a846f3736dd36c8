package dlb

import (
	"fmt"
	"time"

	"repro/internal/cluster"
)

// The engine executes the paper's one master/slave runtime (§3–§4); fault
// tolerance is a policy layered on top of it, not a second runtime. The
// master-side FaultPolicy owns lease tracking, checkpoint cuts, epoch
// rollback and joiner admission; the slave-side slaveFault owns epoch-scoped
// communication, heartbeats, checkpoint parts and recovery restarts. The
// no-op implementations below are the paper's runtime as published: they
// add no endpoint operations, so a run's virtual time, message order and
// gathered arrays are a deterministic function of its configuration.

// FaultPolicy is the master-side fault-tolerance layer plugged into the
// engine's phase loop.
type FaultPolicy interface {
	// Init runs after the ownership map and balancer are built, before the
	// initial scatter.
	Init(e *engine)
	// Started runs right after the scatter, at compute start.
	Started(e *engine)
	// CollectRound gathers one full round of status reports. It returns
	// (nil, false) when the round was voided by a recovery (collect afresh),
	// (nil, true) when every participant announced completion, and
	// (statuses, true) for a normal round.
	CollectRound(e *engine) (map[int]StatusMsg, bool)
	// Participants lists the alive slaves of the current membership,
	// ascending.
	Participants(e *engine) []int
	// Epoch is the current recovery epoch (always 0 without faults).
	Epoch() int
	// RoundObserved runs at the top of each decision round, before the
	// master's decision cost is charged.
	RoundObserved(e *engine)
	// NoteRates records the round's filtered rates — the reassignment
	// weights a recovery would use.
	NoteRates(rates []float64)
	// CheckpointSeq decides whether a checkpoint request rides this round's
	// instruction and sends the requests; it returns the sequence number
	// carried in InstrMsg.CkptSeq (0: none).
	CheckpointSeq(e *engine, phase int, ids []int) int
	// RoundSent runs after the round's instructions went out.
	RoundSent(e *engine)
	// Commit runs after the phase loop completed, before the final gather:
	// the point past which no recovery is possible.
	Commit(e *engine)
	// GatherTimeout bounds each final-gather receive (0: block forever).
	GatherTimeout(e *engine) time.Duration
}

// noFaultPolicy is the paper's deterministic master: no leases, no
// checkpoints, no recovery. Its round collection is one blocking receive
// per slave in id order (§3.1), which is what fixes the simulated
// schedule.
type noFaultPolicy struct{}

func (noFaultPolicy) Init(*engine)    {}
func (noFaultPolicy) Started(*engine) {}

// CollectRound is one blocking receive per not-yet-done reporter, in id
// order. A reporter is a slave or, in a grouped run, a group leader whose
// aggregate carries its whole group — the master's fan-in is then
// O(groups). Slaves announce termination with a "done" message when their
// (possibly data-dependent, §4.1) control flow finishes; since every slave
// follows the identical schedule and break conditions evaluate
// identically, a round is either all statuses or all dones, and a leader's
// aggregate is uniform for the same reason.
func (p noFaultPolicy) CollectRound(e *engine) (map[int]StatusMsg, bool) {
	reporters := p.Participants(e)
	if e.hier != nil {
		reporters = e.hier.part.Leaders()
	}
	raw := map[int]StatusMsg{}
	newDone := 0
	for _, r := range reporters {
		if e.done[r] {
			continue
		}
		msg := e.ep.Recv(r, "")
		var done bool
		switch msg.Tag {
		case "done":
			done = true
			newDone++
		case "status":
		default:
			panic(fmt.Sprintf("dlb: master: unexpected tag %q from slave %d", msg.Tag, r))
		}
		note := func(id int, st StatusMsg) {
			if !done {
				raw[id] = st
				return
			}
			e.markDone(id, st)
		}
		switch d := msg.Data.(type) {
		case StatusMsg:
			note(r, d)
		case GroupStatusMsg:
			for i, id := range d.Ids {
				note(id, d.Statuses[i])
			}
		default:
			panic(fmt.Sprintf("dlb: master: unexpected %q message from slave %d", msg.Tag, r))
		}
	}
	if len(raw) == 0 {
		return nil, true
	}
	if newDone > 0 {
		panic("dlb: slave schedules diverged (mixed status/done round)")
	}
	return raw, true
}

func (noFaultPolicy) Participants(e *engine) []int {
	ids := make([]int, e.initial)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func (noFaultPolicy) Epoch() int                            { return 0 }
func (noFaultPolicy) RoundObserved(*engine)                 {}
func (noFaultPolicy) NoteRates([]float64)                   {}
func (noFaultPolicy) CheckpointSeq(*engine, int, []int) int { return 0 }
func (noFaultPolicy) RoundSent(*engine)                     {}
func (noFaultPolicy) Commit(*engine)                        {}
func (noFaultPolicy) GatherTimeout(*engine) time.Duration   { return 0 }

// slaveFault is the slave-side fault-tolerance layer plugged into the step
// loop: communication tagging, blocked-receive supervision, heartbeats,
// checkpoint parts, and the epoch restart protocol.
type slaveFault interface {
	// commTag scopes a slave-to-slave tag to the current epoch.
	commTag(s *slave, tag string) string
	// recvPeer is the slave-to-slave blocking receive.
	recvPeer(s *slave, from int, tag string) cluster.Msg
	// recvInstr blocks for the next instruction of the current epoch.
	recvInstr(s *slave) InstrMsg
	// heartbeat emits a sign of life if one is due (hook sites and long
	// compute stretches).
	heartbeat(s *slave)
	// checkpoint answers the checkpoint request paired with the instruction
	// just consumed at hook hv (wantSeq from InstrMsg.CkptSeq; 0: none).
	checkpoint(s *slave, hv, wantSeq int)
	// peerAlive reports whether peer o participates in the current epoch.
	peerAlive(s *slave, o int) bool
	// designated reports whether this slave is the lowest-id live slave —
	// the one that ships shared (replicated) state.
	designated(s *slave) bool
	// runEpoch executes the step tree once and announces termination; it
	// returns false when a recovery restarted the epoch (run again).
	runEpoch(s *slave) bool
	// join registers an idle node and waits for admission; it returns false
	// when the run ended first.
	join(s *slave) bool
}

// noSlaveFault is the paper's slave: plain tags, plain blocking receives,
// no heartbeats, no checkpoints, slave 0 ships shared state.
type noSlaveFault struct{}

func (noSlaveFault) commTag(_ *slave, tag string) string { return tag }

func (noSlaveFault) recvPeer(s *slave, from int, tag string) cluster.Msg {
	return s.ep.Recv(from, tag)
}

func (noSlaveFault) recvInstr(s *slave) InstrMsg {
	return s.ep.Recv(cluster.MasterID, "instr").Data.(InstrMsg)
}

func (noSlaveFault) heartbeat(*slave)            {}
func (noSlaveFault) checkpoint(*slave, int, int) {}

func (noSlaveFault) peerAlive(*slave, int) bool { return true }

func (noSlaveFault) designated(s *slave) bool { return s.id == 0 }

func (noSlaveFault) runEpoch(s *slave) bool {
	s.runTree()
	return true
}

func (noSlaveFault) join(s *slave) bool {
	panic(fmt.Sprintf("dlb: slave%d: joiner requires the fault-tolerant policy", s.id))
}
