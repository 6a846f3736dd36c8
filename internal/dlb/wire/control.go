package wire

import "time"

// Connection-lifecycle frames for the distributed TCP runtime
// (internal/netrun). The data-plane messages — status, instruction, work
// movement, slices — are exactly the simulated runtime's types, carried in
// Envelopes whose Tag/From mirror the cluster's tagged messages; the frames
// below exist only at connection setup and membership changes, where the
// goroutine runtime had nothing to negotiate.

// RunSpec describes one compiled run completely enough for a slave daemon
// to reconstruct it: the program source, the binding of its parameters, the
// distribution directive, and every configuration knob whose value slave
// code consults. The master ships it in the StartMsg; the slave compiles it
// with its own toolchain and proves agreement by echoing the hash of the
// plan it actually built (see HelloMsg.PlanHash). Every compile.Options
// field Compile reads has a carrier here (netrun's
// TestCompileOptionsReachTheDaemons); the hook cost is the daemon's own
// constant, as it is the master's.
//
// Removing a field needs no ProtocolVersion bump: gob drops a field the
// receiver does not declare (TestStartMsgDropsRetiredSpecFields). No
// retired field changed a result when sent at its only value: the per-slave
// worker count, the hook fraction, now compile's fixed 1 %, and the hook
// cost, now the wall-clock constant every process derives.
type RunSpec struct {
	// Source is the program text (lang syntax; library programs are
	// formatted back to source).
	Source string
	// Params binds the program parameters.
	Params map[string]int
	// DistDims and DistLoops carry the distribution directive.
	DistDims  map[string]int
	DistLoops []string
	// Grain is the strip-mining block size the master chose; slaves must
	// instantiate with exactly this grain to share the phase schedule.
	Grain int
	// DLB and Synchronous select the balancing mode.
	DLB         bool
	Synchronous bool
	// Kernel is the execution tier (dlb.Config.Kernel: "kernel" or "aot";
	// empty leaves it to the tier gate). Daemons may override it locally
	// with their own -kernel setting. The tier does not enter the plan
	// hash — both tiers execute the same plan bit-identically.
	Kernel string
	// CostModel selects the balancer's view of work units
	// (dlb.Config.CostModel: "uniform" or "learned"; empty means
	// "uniform"). Like Kernel it does not enter the plan hash — the plan
	// is identical, only the master's weighting of it changes.
	CostModel string
	// Overlap gates the split-loop async ghost exchange
	// (dlb.Config.Overlap: "on" or "off"; empty means "on"). Like Kernel
	// it does not enter the plan hash — split-loop eligibility is recorded
	// in the rendered plan source, the knob only gates whether the runtime
	// uses it, and results are bit-identical either way.
	Overlap string
	// HeartbeatEvery is the slave's sign-of-life interval.
	HeartbeatEvery time.Duration
	// FaultSpec is an optional fault.ParseSpec schedule injected on the
	// slave (loopback failure experiments; empty for production runs).
	FaultSpec string
}

// StartMsg is the master's first frame on every master↔slave connection:
// on a dialed connection it opens the handshake; on an accepted join
// connection it answers the joiner's HelloMsg. It assigns the node id and
// carries everything the slave needs to participate.
type StartMsg struct {
	Version int
	// Run is the id the master minted for this run. Every slave↔slave
	// connection of the run announces it (PeerHelloMsg.Run).
	Run string
	// Node is the id assigned to this slave (initial slot or joiner slot).
	Node int
	// Slaves is the initial membership size; Total includes joiner slots.
	Slaves int
	Total  int
	// PlanHash is the hash of the master's compiled plan; the slave's
	// HelloMsg must echo a matching hash of its own compilation.
	PlanHash string
	// MasterAddr is the master's join/reconnect listener ("" if disabled).
	MasterAddr string
	Spec       RunSpec
	// Roster seeds the peer address table (join connections, where the
	// run is already underway; initial connections get a RosterMsg once
	// every slave has handshaked).
	Roster map[int]string
}

// HelloMsg is the slave's side of the handshake. On a master-dialed
// connection it answers the StartMsg; on a slave-initiated connection to
// the master's listener it is the first frame (with Join set and PlanHash
// empty — the spec is not known yet — followed by a second, complete
// HelloMsg after the StartMsg arrives).
type HelloMsg struct {
	Version int
	// Node echoes the assigned id, or claims one on a reconnect attempt
	// (which the master refuses — state is gone; rejoining nodes must come
	// back as fresh joiners).
	Node int
	// PlanHash is the hash of the plan the slave compiled from the spec.
	PlanHash string
	// PeerAddr is the slave's own listener, where peers dial it for direct
	// work movement and boundary exchange.
	PeerAddr string
	// Join marks a slave-initiated connection asking for a joiner slot.
	Join bool
}

// RosterMsg distributes the node id → listener address table. The master
// sends it on every connection once the initial membership has handshaked,
// and again whenever a joiner is admitted; slave transports use it to dial
// peers directly (work never relays through the master).
type RosterMsg struct {
	Addrs map[int]string
}

// PeerHelloMsg identifies the dialing slave and its run on a slave↔slave
// connection; it is the first and only control frame there. A daemon
// closes a peer connection whose Run is not its active session's: node ids
// repeat from run to run, so without it a slave of a run this daemon has
// left (evicted, preempted, re-leased) could deliver into the next one.
type PeerHelloMsg struct {
	From int
	Run  string
}

// RejectMsg refuses a handshake. Code is one of the Reject* constants.
type RejectMsg struct {
	Code   string
	Detail string
}

// Handshake rejection codes.
const (
	RejectVersion   = "version-mismatch"
	RejectPlanHash  = "plan-hash-mismatch"
	RejectDuplicate = "duplicate-id"
	RejectFull      = "no-free-slots"
	RejectProtocol  = "protocol-error"
	// RejectBusy refuses a run because the daemon is already serving one.
	// It is the retryable rejection: a scheduler re-leasing a slave whose
	// previous session is still tearing down backs off and redials.
	RejectBusy = "busy"
)

// Control-frame tags. They live in the same Envelope namespace as data
// messages but are consumed by the transport layer, never surfaced to the
// master/slave protocol code.
const (
	TagStart     = "__start"
	TagHello     = "__hello"
	TagRoster    = "__roster"
	TagPeerHello = "__peer"
	TagReject    = "__reject"
	// TagAbort is a dying process's last frame on every link: it hit a
	// real bug (payload: the panic text), and peers blocked on it must fail
	// rather than evict it and recompute past the bug.
	TagAbort = "__abort"
)
