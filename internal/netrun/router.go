package netrun

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dlb"
	"repro/internal/dlb/wire"
)

// connLost is what a slave's mailbox is poisoned with when its master
// connection dies (or its daemon shuts down): the slave loop unwinds with
// it, the daemon tears the session down and redials the master as a fresh
// joiner. Anything else that escapes the run is a real bug.
type connLost struct{ err error }

func (c connLost) Error() string { return fmt.Sprintf("netrun: master connection lost: %v", c.err) }

// tagClose is a writer-local sentinel: it is never written to the wire,
// it tells the writer goroutine "everything before you is flushed — close
// the connection and stop".
const tagClose = "__netrun_close"

// router owns a process's connections and the mailbox they feed. Every
// attached connection has a reader goroutine (delivering inbound envelopes
// to the mailbox); one connection per peer node id — the first live one —
// is the peer's send link and also has a writer goroutine (serializing
// sends, enforcing write deadlines), so everything this process sends to a
// peer travels on one socket, in order, for as long as that socket lives.
// It is the sender of the process's endpoint. The master's router never
// dials — a slave it cannot reach is simply not heard from, and the lease
// detector evicts it. Slave routers dial peers lazily from the roster, so
// slave↔slave work movement flows direct; run is the id they announce
// themselves under.
type router struct {
	id        int // our node id (cluster.MasterID on the master)
	run       string
	box       *dlb.Mailbox
	to        Timeouts
	dialPeers bool

	mu      sync.Mutex
	links   map[int]*link // send link per peer
	conns   []net.Conn    // every connection attached, for close
	roster  map[int]string
	down    map[int]bool
	closed  bool
	writers sync.WaitGroup
	readers sync.WaitGroup

	// ckptParts counts the checkpoint parts delivered here, which only the
	// master receives: a run's progress mark, so a harness can land an
	// event after the first checkpoint instead of after a guessed delay.
	ckptParts atomic.Int64
}

type link struct {
	peer  int
	nc    net.Conn
	wc    *wire.Conn
	sendQ chan wire.Envelope // nil on a connection that is only read
	dead  chan struct{}
	once  sync.Once
}

func newRouter(id int, run string, to Timeouts, dialPeers bool) *router {
	return &router{
		id:        id,
		run:       run,
		box:       dlb.NewMailbox(),
		to:        to.withDefaults(),
		dialPeers: dialPeers,
		links:     map[int]*link{},
		roster:    map[int]string{},
		down:      map[int]bool{},
	}
}

// endpoint is the process's dlb endpoint: the shared wall-clock endpoint
// receiving from the router's mailbox and sending through its links.
func (r *router) endpoint(drag float64) *dlb.WallEndpoint {
	return dlb.NewWallEndpoint(r.box, time.Now(), drag, r.send)
}

func (r *router) hasLink(peer int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.links[peer] != nil
}

func (r *router) mergeRoster(addrs map[int]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, addr := range addrs {
		if addr != "" {
			r.roster[id] = addr
		}
	}
}

// rosterSnapshot copies the current peer address table.
func (r *router) rosterSnapshot() map[int]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int]string, len(r.roster))
	for id, addr := range r.roster {
		out[id] = addr
	}
	return out
}

// linkedPeers lists the ids with a live connection.
func (r *router) linkedPeers() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.links))
	for id := range r.links {
		out = append(out, id)
	}
	return out
}

// send routes one protocol message. A peer with no connection is dialed
// lazily (slave routers only); a peer whose connection died gets nothing —
// on the master that silence is exactly what the lease detector turns into
// an eviction, and on a slave the dead peer's work is re-homed by the
// recovery that its eviction triggers.
func (r *router) send(to int, tag string, data interface{}) {
	env := wire.Envelope{Tag: tag, From: r.id, Payload: data}
	r.mu.Lock()
	l := r.links[to]
	addr := r.roster[to]
	isDown := r.down[to]
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return
	}
	if l == nil {
		if !r.dialPeers || to == cluster.MasterID || isDown || addr == "" {
			return
		}
		if l = r.dialPeer(to, addr); l == nil {
			return
		}
	}
	select {
	case l.sendQ <- env:
	case <-l.dead:
	}
}

// dialPeer opens the lazy slave↔slave connection: dial with backoff,
// identify ourselves and our run with a PeerHelloMsg, attach. It returns
// the peer's send link, which is an earlier connection if the peer's own
// dial was attached while ours was under way.
func (r *router) dialPeer(to int, addr string) *link {
	nc, err := dialBackoff(addr, r.to.Dial)
	if err != nil {
		r.mu.Lock()
		r.down[to] = true // stop retrying a gone peer on every send
		r.mu.Unlock()
		return nil
	}
	nc.SetWriteDeadline(time.Now().Add(r.to.Handshake))
	wc := wire.NewConn(nc)
	hello := wire.PeerHelloMsg{From: r.id, Run: r.run}
	if err := wc.Send(wire.Envelope{Tag: wire.TagPeerHello, From: r.id, Payload: hello}); err != nil {
		nc.Close()
		return nil
	}
	nc.SetWriteDeadline(time.Time{})
	return r.attach(to, nc, wc, false)
}

// attach starts reading a live connection from peer and returns the
// peer's send link. The first live connection for a peer is that link and
// stays it until it dies: a later one (two slaves that dialed each other
// for the same exchange) is read, so nothing the peer sends on it is lost,
// but never written, so frames k and k+1 to one peer cannot leave on
// different sockets and overtake each other. attach takes the wire.Conn
// the handshake already used — gob streams are stateful (type definitions
// are transmitted once), so the same encoder/decoder pair must carry the
// whole connection. readLimited arms the per-frame read deadline — the
// master sets it on slave connections, where heartbeats guarantee traffic
// and prolonged silence means a dead link TCP has not noticed.
//
// Every attached connection sends status, instructions and bulk payloads on
// the binary codec: the handshake's ProtocolVersion check already admitted
// the peer, and every peer of that version decodes binary frames.
func (r *router) attach(peer int, nc net.Conn, wc *wire.Conn, readLimited bool) *link {
	wc.SetBinary(true)
	l := &link{peer: peer, nc: nc, wc: wc, dead: make(chan struct{})}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		nc.Close()
		return nil
	}
	r.conns = append(r.conns, nc)
	first := r.links[peer]
	if first == nil {
		l.sendQ = make(chan wire.Envelope, 4096)
		r.links[peer] = l
		delete(r.down, peer)
		r.writers.Add(1)
	}
	r.readers.Add(1)
	r.mu.Unlock()
	go r.reader(l, readLimited)
	if first != nil {
		return first
	}
	go r.writer(l)
	return l
}

func (r *router) linkDown(l *link, err error) {
	l.once.Do(func() {
		close(l.dead)
		l.nc.Close()
	})
	r.mu.Lock()
	if r.links[l.peer] == l {
		delete(r.links, l.peer)
		r.down[l.peer] = true
	}
	closed := r.closed
	r.mu.Unlock()
	if l.peer == cluster.MasterID && r.id != cluster.MasterID && !closed {
		r.box.Fail(connLost{err})
	}
}

func (r *router) writer(l *link) {
	defer r.writers.Done()
	for {
		select {
		case env := <-l.sendQ:
			if env.Tag == tagClose {
				r.linkDown(l, nil)
				return
			}
			l.nc.SetWriteDeadline(time.Now().Add(r.to.Write))
			if err := l.wc.Send(env); err != nil {
				r.linkDown(l, err)
				return
			}
		case <-l.dead:
			return
		}
	}
}

func (r *router) reader(l *link, readLimited bool) {
	defer r.readers.Done()
	// The reader owns the connection's inbound frame buffer; when it exits
	// the buffer goes back to the pool (the explicit release point of the
	// data plane's receive storage).
	defer l.wc.Release()
	for {
		if readLimited {
			l.nc.SetReadDeadline(time.Now().Add(r.to.Read))
		}
		env, err := l.wc.Recv()
		if err != nil {
			r.linkDown(l, err)
			return
		}
		switch env.Tag {
		case wire.TagRoster:
			if ro, ok := env.Payload.(wire.RosterMsg); ok {
				r.mergeRoster(ro.Addrs)
			}
		case wire.TagAbort:
			// The peer died of a real bug: whoever is blocked on it here
			// must fail with that, not evict it and recompute past the bug.
			reason, _ := env.Payload.(string)
			r.box.Fail(&dlb.PeerFailure{Peer: l.peer, Reason: reason})
		default:
			if env.Tag == "ckpt" {
				r.ckptParts.Add(1)
			}
			r.box.Put(cluster.Msg{From: env.From, Tag: env.Tag, Data: env.Payload})
		}
	}
}

// broadcast queues env on every live link.
func (r *router) broadcast(env wire.Envelope) {
	r.mu.Lock()
	links := make([]*link, 0, len(r.links))
	for _, l := range r.links {
		links = append(links, l)
	}
	r.mu.Unlock()
	for _, l := range links {
		select {
		case l.sendQ <- env:
		case <-l.dead:
		}
	}
}

// abort tells every linked peer that this process died of a genuine bug
// (their readers poison their mailboxes with a dlb.PeerFailure): it must
// surface as an error there, not as a silent eviction that quietly
// recomputes past it.
func (r *router) abort(reason string) {
	r.broadcast(wire.Envelope{Tag: wire.TagAbort, From: r.id, Payload: reason})
}

// close flushes every send link's queued sends (the final gather,
// evictions), then closes every connection the router attached — the send
// links and the ones it only read, which no peer may ever close — and
// waits for their readers. No connection attaches once closed is set.
func (r *router) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	conns := r.conns
	r.mu.Unlock()
	r.broadcast(wire.Envelope{Tag: tagClose})
	r.writers.Wait()
	for _, nc := range conns {
		nc.Close()
	}
	r.readers.Wait()
}

// dialBackoff dials addr with exponentially backed-off retries until the
// budget is spent. Retrying covers the races real deployments hit —
// daemons starting in any order, a listener briefly behind its
// address being printed — and the reconnect path.
func dialBackoff(addr string, budget time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	backoff := 50 * time.Millisecond
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			remain = time.Millisecond
		}
		nc, err := net.DialTimeout("tcp", addr, remain)
		if err == nil {
			return nc, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}
