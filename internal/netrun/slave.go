package netrun

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/dlb"
	"repro/internal/dlb/wire"
)

// ServerOptions configures a slave daemon.
type ServerOptions struct {
	// Listen is the daemon's listener address (default "127.0.0.1:0").
	// Masters dial it to start runs; peers dial it for direct work
	// movement and boundary exchange.
	Listen string
	// Advertise is the address peers should dial ("" : the bound address;
	// set it when the daemon listens on a wildcard interface).
	Advertise string
	// Join, when set, makes the daemon dial the given master listener at
	// startup and volunteer as an elastic joiner.
	Join string
	// Drag slows this daemon's computation by the given factor (>= 1),
	// emulating a slower or loaded machine so load redistribution is
	// observable on homogeneous test hardware.
	Drag float64
	// Kernel overrides the master's shipped execution tier for this daemon
	// ("" uses the shipped value; "interp", "kernel" or "aot" force a
	// tier). All tiers are bit-identical, so heterogeneous overrides are
	// safe — a daemon without a working toolchain can pin itself to
	// "kernel" while its peers run "aot".
	Kernel   string
	Timeouts Timeouts
	// Logf receives daemon events (nil: silent).
	Logf func(format string, args ...interface{})
}

// Server is the slave daemon: it serves one run at a time, accepting the
// master's handshake and its peers' connections, executing the slave loop
// over the TCP endpoint, and rejoining the master elastically after a lost
// connection.
type Server struct {
	opt   ServerOptions
	to    Timeouts
	ln    net.Listener
	plans *compile.Cache

	mu     sync.Mutex
	sess   *session
	closed bool
	wg     sync.WaitGroup
}

// session is one run's transport state.
type session struct {
	node int
	rt   *router
}

// NewServer binds the daemon's listener.
func NewServer(opt ServerOptions) (*Server, error) {
	listen := opt.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("netrun: slave listener: %w", err)
	}
	return &Server{
		opt:   opt,
		to:    opt.Timeouts.withDefaults(),
		ln:    ln,
		plans: compile.NewCache(compileCacheEntries),
	}, nil
}

// compileCacheEntries bounds a daemon's compile cache. Plans are a few
// kilobytes and hold no array data, so the bound only has to cover the
// distinct programs a pool serves between restarts.
const compileCacheEntries = 16

// CompileCacheStats reports how many sessions found their program already
// compiled (hits) and how many compiled it (misses).
func (s *Server) CompileCacheStats() (hits, misses int64) { return s.plans.Stats() }

// Addr is the bound listener address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) advertise() string {
	if s.opt.Advertise != "" {
		return s.opt.Advertise
	}
	return s.Addr()
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// Close stops the daemon immediately: the listener shuts down and any
// active run is torn down (its master sees the silence and evicts this
// node). The mailbox is poisoned before the router closes, so a slave loop
// blocked in a receive unwinds while the in-flight frames flush — Close
// returns once every session goroutine has exited and the port is free to
// rebind.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	sess := s.sess
	s.mu.Unlock()
	err := s.ln.Close()
	if sess != nil {
		sess.rt.box.Fail(connLost{errors.New("server closed")})
		sess.rt.close()
	}
	s.wg.Wait()
	return err
}

// Shutdown stops the daemon gracefully: new runs are refused at once, but
// an active session keeps running — with its listener still accepting the
// peer connections mid-run work movement needs — until it completes or the
// grace period expires, whichever comes first. A survivor past the grace
// is torn down as Close does. This is the SIGTERM path: a mid-run kill
// drains instead of leaking the session (and, with it, the bound port).
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	deadline := time.Now().Add(grace)
	for {
		s.mu.Lock()
		active := s.sess != nil
		s.mu.Unlock()
		if !active || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return s.Close()
}

// Serve accepts connections until Close. It blocks.
func (s *Server) Serve() error {
	if s.opt.Join != "" {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.joinMaster(s.opt.Join)
		}()
	}
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(nc)
		}()
	}
}

// handleConn dispatches an inbound connection on its first frame: a
// StartMsg opens a run (the master dialed us), a PeerHelloMsg attaches a
// slave↔slave data connection to the active session.
func (s *Server) handleConn(nc net.Conn) {
	wc := wire.NewConn(nc)
	nc.SetReadDeadline(time.Now().Add(s.to.Handshake))
	env, err := wc.Recv()
	if err != nil {
		nc.Close()
		return
	}
	nc.SetReadDeadline(time.Time{})
	switch env.Tag {
	case wire.TagStart:
		st, ok := env.Payload.(wire.StartMsg)
		if !ok {
			s.reject(wc, nc, wire.RejectMsg{Code: wire.RejectProtocol, Detail: "malformed start payload"})
			return
		}
		s.runSession(nc, wc, st, false)
	case wire.TagPeerHello:
		ph, ok := env.Payload.(wire.PeerHelloMsg)
		if !ok {
			nc.Close()
			return
		}
		s.mu.Lock()
		sess := s.sess
		s.mu.Unlock()
		if sess == nil || ph.Run != sess.rt.run {
			nc.Close() // a stale peer of a session this daemon has left
			return
		}
		sess.rt.attach(ph.From, nc, wc, false)
	default:
		s.reject(wc, nc, wire.RejectMsg{Code: wire.RejectProtocol, Detail: fmt.Sprintf("unexpected first frame %q", env.Tag)})
	}
}

func (s *Server) reject(wc *wire.Conn, nc net.Conn, rej wire.RejectMsg) {
	nc.SetWriteDeadline(time.Now().Add(s.to.Handshake))
	wc.Send(wire.Envelope{Tag: wire.TagReject, From: -1, Payload: rej})
	nc.Close()
	s.logf("rejected %s: %s (%s)", nc.RemoteAddr(), rej.Code, rej.Detail)
}

// runSession validates a StartMsg, answers the handshake, executes the
// slave loop, and — when the master connection was lost mid-run — redials
// the master to rejoin as a fresh node.
func (s *Server) runSession(nc net.Conn, wc *wire.Conn, st wire.StartMsg, joiner bool) {
	if st.Version != ProtocolVersion {
		s.reject(wc, nc, wire.RejectMsg{
			Code:   wire.RejectVersion,
			Detail: fmt.Sprintf("daemon speaks version %d, master %d", ProtocolVersion, st.Version),
		})
		return
	}
	// A busy daemon answers before it spends the running job's CPU on
	// compiling and instantiating a plan it will not run. The claim itself
	// stays after the handshake work, below.
	if occupied, closed := s.occupied(); occupied {
		s.rejectOccupied(wc, nc, closed)
		return
	}
	compileStart := time.Now()
	cfg, planCached, err := configFromSpec(s.plans, st.Spec)
	compileTime := time.Since(compileStart)
	if err != nil {
		s.reject(wc, nc, wire.RejectMsg{Code: wire.RejectProtocol, Detail: err.Error()})
		return
	}
	if s.opt.Kernel != "" {
		cfg.Kernel = s.opt.Kernel
	}
	pre, err := dlb.Prepare(cfg, st.Slaves)
	if err != nil {
		s.reject(wc, nc, wire.RejectMsg{Code: wire.RejectProtocol, Detail: err.Error()})
		return
	}
	hash := PlanHash(cfg.Plan, pre.Exec, cfg.Params, pre.Grain)
	if hash != st.PlanHash {
		s.reject(wc, nc, wire.RejectMsg{
			Code:   wire.RejectPlanHash,
			Detail: fmt.Sprintf("daemon compiled %s, master %s", hash, st.PlanHash),
		})
		return
	}
	if err := pre.LoadNative(cfg); err != nil {
		s.reject(wc, nc, wire.RejectMsg{Code: wire.RejectProtocol, Detail: err.Error()})
		return
	}

	rt := newRouter(st.Node, st.Run, s.to, true)
	rt.mergeRoster(st.Roster)
	sess := &session{node: st.Node, rt: rt}
	s.mu.Lock()
	if s.sess != nil || s.closed {
		closed := s.closed
		s.mu.Unlock()
		s.rejectOccupied(wc, nc, closed)
		return
	}
	s.sess = sess
	s.mu.Unlock()

	nc.SetWriteDeadline(time.Now().Add(s.to.Handshake))
	hello := wire.HelloMsg{
		Version:  ProtocolVersion,
		Node:     st.Node,
		PlanHash: hash,
		PeerAddr: s.advertise(),
		Join:     joiner,
	}
	if err := wc.Send(wire.Envelope{Tag: wire.TagHello, From: st.Node, Payload: hello}); err != nil {
		s.clearSession(sess)
		nc.Close()
		return
	}
	nc.SetWriteDeadline(time.Time{})
	rt.attach(cluster.MasterID, nc, wc, false)

	s.logf("node %d: run started (%d slaves, %d slots, grain %d, joiner=%v, plan cached=%v compile=%.2fms)",
		st.Node, st.Slaves, st.Total, pre.Grain, joiner, planCached, float64(compileTime.Microseconds())/1e3)
	err = s.runSlave(sess, cfg, st, pre)
	rt.close()
	s.clearSession(sess)

	var cl connLost
	switch {
	case err == nil:
		s.logf("node %d: run completed", st.Node)
	case errors.Is(err, dlb.ErrEvicted):
		s.logf("node %d: evicted by master", st.Node)
	case errors.Is(err, dlb.ErrInjectedCrash):
		s.logf("node %d: halted by injected crash", st.Node)
	case errors.As(err, &cl):
		s.logf("node %d: %v", st.Node, err)
		if st.MasterAddr != "" && !s.isClosed() {
			s.logf("node %d: rejoining master at %s", st.Node, st.MasterAddr)
			s.joinMaster(st.MasterAddr)
		}
	default:
		s.logf("node %d: run failed: %v", st.Node, err)
	}
}

// runSlave drives the slave loop, mapping what unwinds it to errors. A
// genuine bug is broadcast to all peers (fail fast, like the goroutine
// runtime's poison) but does not kill the daemon; a peer's bug arrives as
// the mailbox's *dlb.PeerFailure poison and is only reported.
func (s *Server) runSlave(sess *session, cfg dlb.Config, st wire.StartMsg, pre *dlb.Prepared) (err error) {
	defer func() {
		switch p := recover().(type) {
		case nil:
		case connLost:
			err = p
		case *dlb.PeerFailure:
			err = fmt.Errorf("netrun: slave %d: %w", sess.node, p)
		default:
			sess.rt.abort(fmt.Sprint(p))
			err = fmt.Errorf("netrun: slave %d panicked: %v", sess.node, p)
		}
	}()
	return dlb.RunSlaveOn(sess.rt.endpoint(s.opt.Drag), cfg, st.Node, st.Slaves, pre)
}

// occupied reports whether the daemon cannot take a run: a session holds
// it, or it is closing (closed says which).
func (s *Server) occupied() (occupied, closed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sess != nil || s.closed, s.closed
}

// rejectOccupied refuses a run the daemon cannot take now. Busy is
// retryable: the master backs off and redials — a scheduler re-leasing this
// daemon right after preempting its previous run races the old session's
// teardown.
func (s *Server) rejectOccupied(wc *wire.Conn, nc net.Conn, closed bool) {
	if closed {
		s.reject(wc, nc, wire.RejectMsg{Code: wire.RejectProtocol, Detail: "daemon is shutting down"})
		return
	}
	s.reject(wc, nc, wire.RejectMsg{Code: wire.RejectBusy, Detail: "daemon is busy with another run"})
}

func (s *Server) clearSession(sess *session) {
	s.mu.Lock()
	if s.sess == sess {
		s.sess = nil
	}
	s.mu.Unlock()
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// joinMaster dials the master's listener and volunteers as an elastic
// joiner: both a fresh node joining mid-run and a slave whose connection
// died re-enter through this path (the master refuses id reuse — the old
// slot's state is gone, so the daemon comes back under a new identity).
func (s *Server) joinMaster(addr string) {
	nc, err := dialBackoff(addr, s.to.Dial)
	if err != nil {
		s.logf("join %s: %v", addr, err)
		return
	}
	wc := wire.NewConn(nc)
	nc.SetDeadline(time.Now().Add(s.to.Handshake))
	hello := wire.HelloMsg{Version: ProtocolVersion, PeerAddr: s.advertise(), Join: true}
	if err := wc.Send(wire.Envelope{Tag: wire.TagHello, From: -1, Payload: hello}); err != nil {
		nc.Close()
		s.logf("join %s: %v", addr, err)
		return
	}
	env, err := wc.Recv()
	if err != nil {
		nc.Close()
		s.logf("join %s: %v", addr, err)
		return
	}
	nc.SetDeadline(time.Time{})
	switch env.Tag {
	case wire.TagStart:
		st, ok := env.Payload.(wire.StartMsg)
		if !ok {
			nc.Close()
			return
		}
		s.runSession(nc, wc, st, true)
	case wire.TagReject:
		if rej, ok := env.Payload.(wire.RejectMsg); ok {
			s.logf("join %s refused: %v", addr, rejectErr(rej))
		}
		nc.Close()
	default:
		nc.Close()
	}
}
