package netrun

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dlb"
	"repro/internal/dlb/wire"
	"repro/internal/fault"
)

// MasterOptions configures a distributed master.
type MasterOptions struct {
	// Listen is the master's own listener, where joiners and reconnecting
	// slaves dial in (default "127.0.0.1:0").
	Listen string
	// ExtraSlots is how many joiner slots to provision beyond the initial
	// membership; elastic join and reconnect both consume them.
	ExtraSlots int
	// OnListen is called with the master's bound listener address before
	// any slave is dialed (harnesses use it to learn the join address).
	OnListen func(addr string)
	Timeouts Timeouts
	// Prepared, when set, skips the Prepare step: the caller supplies the
	// instantiation (typically from a plan cache) whose grain and resolved
	// compile options this run must reuse. Required for resumed runs — a
	// checkpoint replays only under the phase schedule it was cut with —
	// and the reason resubmitted plans hash identically (grain measurement
	// is timing-dependent; a cached Prepared pins it).
	Prepared *dlb.Prepared
	// Logf receives transport events (nil: silent).
	Logf func(format string, args ...interface{})
}

// netMaster is the master's transport state, shared between the run and
// the accept loop.
type netMaster struct {
	opt   MasterOptions
	to    Timeouts
	spec  wire.RunSpec
	hash  string
	run   string // this run's id, announced by its slave↔slave connections
	n     int    // initial membership
	total int
	rt    *router
	ln    net.Listener

	mu       sync.Mutex
	free     []int // unassigned joiner slots, ascending
	closed   bool
	acceptWG sync.WaitGroup
}

func (m *netMaster) logf(format string, args ...interface{}) {
	if m.opt.Logf != nil {
		m.opt.Logf(format, args...)
	}
}

// RunMaster executes cfg as a distributed run: dial and handshake the
// slave daemons at slaveAddrs, distribute the roster, then drive the
// fault-tolerant master protocol over TCP. It returns when the computation
// completes (or recovery becomes impossible). Connection losses are
// handled by the fault layer — a slave daemon that dies mid-run is evicted
// after its heartbeat lease expires and its work is rolled back to the
// last consistent checkpoint, exactly as with in-process injected crashes.
func RunMaster(cfg dlb.Config, slaveAddrs []string, opt MasterOptions) (*dlb.Result, error) {
	n := len(slaveAddrs)
	if n < 1 {
		return nil, fmt.Errorf("netrun: no slave addresses")
	}
	if !cfg.DLB {
		return nil, fmt.Errorf("netrun: distributed runs require DLB (hooks are the heartbeat and checkpoint substrate)")
	}
	pre := opt.Prepared
	if pre == nil {
		var err error
		pre, err = dlb.Prepare(cfg, n)
		if err != nil {
			return nil, err
		}
	}
	// Ship the resolved compile options: Prepare may have rebased the hook
	// cost on measured kernel speed, and slaves must instantiate with the
	// same value or their plan hashes (phase schedules) would diverge.
	cfg.CompileOpts = pre.Opts
	hbEvery := fault.NewDetector(cfg.Detect, 1).Config().HeartbeatEvery
	m := &netMaster{
		opt:   opt,
		to:    opt.Timeouts.withDefaults(),
		spec:  specFromConfig(cfg, pre.Grain, hbEvery),
		hash:  PlanHash(cfg.Plan, pre.Exec, cfg.Params, pre.Grain),
		run:   newRunID(),
		n:     n,
		total: n + opt.ExtraSlots,
	}
	m.rt = newRouter(cluster.MasterID, m.run, m.to, false)
	for slot := n; slot < m.total; slot++ {
		m.free = append(m.free, slot)
	}

	listen := opt.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	var err error
	m.ln, err = net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("netrun: master listener: %w", err)
	}
	defer m.shutdown()
	if opt.OnListen != nil {
		opt.OnListen(m.ln.Addr().String())
	}

	// Dial and handshake the initial membership.
	roster := map[int]string{}
	for i, addr := range slaveAddrs {
		peerAddr, err := m.handshakeSlave(i, addr)
		if err != nil {
			return nil, fmt.Errorf("netrun: slave %d at %s: %w", i, addr, err)
		}
		roster[i] = peerAddr
	}
	m.rt.mergeRoster(roster)
	// The roster is the first frame on every connection: FIFO delivery
	// guarantees each slave knows its peers' addresses before any init
	// scatter (and thus before any instruction that could move work).
	for i := 0; i < n; i++ {
		m.rt.send(i, wire.TagRoster, wire.RosterMsg{Addrs: roster})
	}

	m.acceptWG.Add(1)
	go m.acceptLoop()

	// Move-cost prior: on loopback TCP movement cost is dominated by the
	// codec, so seed the bandwidth from a measured encode+decode of the
	// binary data plane rather than a constant. The balancer's EMA then
	// keeps tracking real measured movements (§4.3).
	cc := cluster.Config{
		Slaves:       n,
		Quantum:      cfg.RealQuantum,
		Bandwidth:    wire.CodecBandwidth(),
		LinkLatency:  100 * time.Microsecond,
		SendOverhead: 10 * time.Microsecond,
	}
	return dlb.RunMasterOn(m.rt.endpoint(1), cfg, cc, n, m.total, pre)
}

// newRunID mints the id that tells this run's slave↔slave connections
// from those of any other run the same daemons served.
func newRunID() string {
	var b [8]byte
	// An unreadable entropy source leaves zeros: still an id, only a weaker
	// one, and not worth failing a run over.
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

func (m *netMaster) shutdown() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.ln.Close()
	m.rt.close()
	m.acceptWG.Wait()
}

// handshakeSlave dials one initial slave, sends the StartMsg, validates
// the HelloMsg reply, and attaches the connection. A busy rejection is retried with
// backoff within the dial budget: a scheduler re-leasing a slave whose
// previous (preempted or completed) session is still tearing down should
// wait it out, not fail the run.
func (m *netMaster) handshakeSlave(node int, addr string) (peerAddr string, err error) {
	deadline := time.Now().Add(m.to.Dial)
	backoff := 20 * time.Millisecond
	for {
		peerAddr, err = m.handshakeSlaveOnce(node, addr)
		if err == nil || !errors.Is(err, ErrBusy) || time.Now().Add(backoff).After(deadline) {
			return
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

func (m *netMaster) handshakeSlaveOnce(node int, addr string) (peerAddr string, err error) {
	nc, err := dialBackoff(addr, m.to.Dial)
	if err != nil {
		return "", err
	}
	wc := wire.NewConn(nc)
	nc.SetDeadline(time.Now().Add(m.to.Handshake))
	start := wire.StartMsg{
		Version:    ProtocolVersion,
		Run:        m.run,
		Node:       node,
		Slaves:     m.n,
		Total:      m.total,
		PlanHash:   m.hash,
		MasterAddr: m.ln.Addr().String(),
		Spec:       m.spec,
	}
	if err := wc.Send(wire.Envelope{Tag: wire.TagStart, From: cluster.MasterID, Payload: start}); err != nil {
		nc.Close()
		return "", err
	}
	h, err := recvHello(wc)
	if err != nil {
		nc.Close()
		return "", err
	}
	if err := m.checkHello(h); err != nil {
		nc.Close()
		return "", err
	}
	nc.SetDeadline(time.Time{})
	m.rt.attach(node, nc, wc, true)
	m.logf("slave %d connected from %s (peer listener %s)", node, nc.RemoteAddr(), h.PeerAddr)
	return h.PeerAddr, nil
}

// recvHello reads the slave's handshake reply, surfacing a RejectMsg as
// its typed error.
func recvHello(wc *wire.Conn) (wire.HelloMsg, error) {
	env, err := wc.Recv()
	if err != nil {
		return wire.HelloMsg{}, err
	}
	switch env.Tag {
	case wire.TagHello:
		h, ok := env.Payload.(wire.HelloMsg)
		if !ok {
			return wire.HelloMsg{}, fmt.Errorf("%w: malformed hello payload", ErrProtocol)
		}
		return h, nil
	case wire.TagReject:
		if rej, ok := env.Payload.(wire.RejectMsg); ok {
			return wire.HelloMsg{}, rejectErr(rej)
		}
		return wire.HelloMsg{}, ErrProtocol
	default:
		return wire.HelloMsg{}, fmt.Errorf("%w: expected hello, got %q", ErrProtocol, env.Tag)
	}
}

func (m *netMaster) checkHello(h wire.HelloMsg) error {
	if h.Version != ProtocolVersion {
		return fmt.Errorf("%w: master %d, slave %d", ErrVersionMismatch, ProtocolVersion, h.Version)
	}
	if h.PlanHash != m.hash {
		return fmt.Errorf("%w: master %s, slave %s", ErrPlanHashMismatch, m.hash, h.PlanHash)
	}
	return nil
}

// acceptLoop admits joiners and reconnecting slaves (which come back as
// joiners: their old slot's state died with the connection), and refuses
// everything else with a typed RejectMsg.
func (m *netMaster) acceptLoop() {
	defer m.acceptWG.Done()
	for {
		nc, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.acceptWG.Add(1)
		go func() {
			defer m.acceptWG.Done()
			m.handleJoin(nc)
		}()
	}
}

func sendReject(wc *wire.Conn, nc net.Conn, rej wire.RejectMsg, to Timeouts) {
	nc.SetWriteDeadline(time.Now().Add(to.Handshake))
	wc.Send(wire.Envelope{Tag: wire.TagReject, From: cluster.MasterID, Payload: rej})
	nc.Close()
}

func (m *netMaster) handleJoin(nc net.Conn) {
	wc := wire.NewConn(nc)
	nc.SetDeadline(time.Now().Add(m.to.Handshake))
	env, err := wc.Recv()
	if err != nil {
		nc.Close()
		return
	}
	h, ok := env.Payload.(wire.HelloMsg)
	if env.Tag != wire.TagHello || !ok {
		sendReject(wc, nc, wire.RejectMsg{Code: wire.RejectProtocol, Detail: "expected hello"}, m.to)
		return
	}
	if h.Version != ProtocolVersion {
		sendReject(wc, nc, wire.RejectMsg{
			Code:   wire.RejectVersion,
			Detail: fmt.Sprintf("master speaks version %d, slave %d", ProtocolVersion, h.Version),
		}, m.to)
		return
	}
	if !h.Join {
		// A slave claiming an id it was never handed on this connection:
		// either a second connection for an id that is already attached
		// (duplicate) or a stale slave trying to resume its old identity.
		// Both are refused — a reconnecting node's state is gone; it must
		// come back as a fresh joiner.
		code, detail := wire.RejectProtocol, "masters dial slaves; reconnect with Join"
		if m.rt.hasLink(h.Node) {
			code, detail = wire.RejectDuplicate, fmt.Sprintf("node %d is already connected", h.Node)
		}
		sendReject(wc, nc, wire.RejectMsg{Code: code, Detail: detail}, m.to)
		return
	}

	slot, ok := m.takeSlot()
	if !ok {
		sendReject(wc, nc, wire.RejectMsg{Code: wire.RejectFull, Detail: "no free joiner slots"}, m.to)
		return
	}
	start := wire.StartMsg{
		Version:    ProtocolVersion,
		Run:        m.run,
		Node:       slot,
		Slaves:     m.n,
		Total:      m.total,
		PlanHash:   m.hash,
		MasterAddr: m.ln.Addr().String(),
		Spec:       m.spec,
		Roster:     m.rt.rosterSnapshot(),
	}
	if err := wc.Send(wire.Envelope{Tag: wire.TagStart, From: cluster.MasterID, Payload: start}); err != nil {
		m.releaseSlot(slot)
		nc.Close()
		return
	}
	full, err := recvHello(wc)
	if err != nil || m.checkHello(full) != nil {
		// The joiner never sent its JoinMsg (that happens inside its run),
		// so the slot can be reused without confusing admission ordering.
		m.releaseSlot(slot)
		nc.Close()
		m.logf("join handshake from %s failed: %v", nc.RemoteAddr(), err)
		return
	}
	nc.SetDeadline(time.Time{})
	m.rt.mergeRoster(map[int]string{slot: full.PeerAddr})
	m.rt.attach(slot, nc, wc, true)
	// Tell everyone where the new node listens before its admission can
	// direct any work movement toward it (FIFO per connection).
	m.broadcastRoster()
	m.logf("joiner admitted into slot %d from %s", slot, nc.RemoteAddr())
}

func (m *netMaster) takeSlot() (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.free) == 0 {
		return 0, false
	}
	slot := m.free[0]
	m.free = m.free[1:]
	return slot, true
}

func (m *netMaster) releaseSlot(slot int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.free = append(m.free, slot)
	sort.Ints(m.free)
}

func (m *netMaster) broadcastRoster() {
	roster := m.rt.rosterSnapshot()
	for _, id := range m.rt.linkedPeers() {
		m.rt.send(id, wire.TagRoster, wire.RosterMsg{Addrs: roster})
	}
}
