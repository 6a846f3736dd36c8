package dlb

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
)

// PeerFailure is the error a Mailbox is poisoned with when another process
// of the run died of a real bug (a panic that is neither an injected crash
// nor an eviction): whoever is blocked on that process must fail with it,
// not wait forever — or evict it and quietly recompute past the bug.
type PeerFailure struct {
	Peer   int // node id
	Reason string
}

func (f *PeerFailure) Error() string { return fmt.Sprintf("slave %d failed: %s", f.Peer, f.Reason) }

// Mailbox is the message store of one wall-clock process — a RunReal
// goroutine, a TCP daemon session or the TCP master. Any goroutine may Put
// (a peer's in-process Send, a connection's reader); the one master or
// slave loop that owns the endpoint receives.
type Mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []cluster.Msg
	fail    error         // poison; see Fail
	notify  chan struct{} // wakes a Sleep early when a message lands
}

// NewMailbox returns an empty mailbox.
func NewMailbox() *Mailbox {
	b := &Mailbox{notify: make(chan struct{}, 1)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Put delivers one message.
func (b *Mailbox) Put(m cluster.Msg) {
	b.mu.Lock()
	b.pending = append(b.pending, m)
	b.mu.Unlock()
	b.wake()
}

// Fail poisons the mailbox: once no pending message matches, every blocked
// or future receive panics with err, unwinding the owner's loop no matter
// how deep it is. The first poison wins.
func (b *Mailbox) Fail(err error) {
	b.mu.Lock()
	if b.fail == nil {
		b.fail = err
	}
	b.mu.Unlock()
	b.wake()
}

func (b *Mailbox) wake() {
	b.cond.Broadcast()
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

func matchMsg(m cluster.Msg, from int, tag string) bool {
	if from != cluster.AnySource && m.From != from {
		return false
	}
	return tag == "" || m.Tag == tag
}

// take removes the first match, or panics with the poison when there is
// none; callers hold b.mu.
func (b *Mailbox) take(from int, tag string) (cluster.Msg, bool) {
	for i, m := range b.pending {
		if matchMsg(m, from, tag) {
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			return m, true
		}
	}
	if b.fail != nil {
		panic(b.fail)
	}
	return cluster.Msg{}, false
}

func (b *Mailbox) tryRecv(from int, tag string) (cluster.Msg, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.take(from, tag)
}

func (b *Mailbox) recv(from int, tag string) cluster.Msg {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if m, ok := b.take(from, tag); ok {
			return m
		}
		b.cond.Wait()
	}
}

// sleep idles for d but wakes early when a message arrives (or the mailbox
// is poisoned), so a poll interval costs no latency: a receive loop's next
// TryRecv runs as soon as there is anything to try.
func (b *Mailbox) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-b.notify:
	case <-t.C:
	}
}

// WallEndpoint is the wall-clock Endpoint: real timers, tagged matching
// receives out of a Mailbox. RunReal and internal/netrun differ only in the
// injected send — a Put into the destination's mailbox, or the connection
// router's framed write.
type WallEndpoint struct {
	box   *Mailbox
	send  func(to int, tag string, data interface{})
	start time.Time
	drag  float64
	busy  time.Duration
}

// NewWallEndpoint builds the endpoint of the process that owns box. start
// is the run's time origin; drag > 1 slows the process's computation by
// that factor (an emulated slower or loaded machine).
func NewWallEndpoint(box *Mailbox, start time.Time, drag float64, send func(to int, tag string, data interface{})) *WallEndpoint {
	return &WallEndpoint{box: box, send: send, start: start, drag: drag}
}

func (e *WallEndpoint) Compute(_ time.Duration, fn func()) {
	if fn == nil {
		return
	}
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	if e.drag > 1 {
		extra := time.Duration((e.drag - 1) * float64(d))
		time.Sleep(extra)
		d += extra
	}
	e.busy += d
}

func (e *WallEndpoint) Send(to int, tag string, data interface{}) { e.send(to, tag, data) }

func (e *WallEndpoint) Recv(from int, tag string) cluster.Msg {
	return e.box.recv(from, tag)
}

func (e *WallEndpoint) TryRecv(from int, tag string) (cluster.Msg, bool) {
	return e.box.tryRecv(from, tag)
}

func (e *WallEndpoint) Busy() time.Duration   { return e.busy }
func (e *WallEndpoint) Now() time.Duration    { return time.Since(e.start) }
func (e *WallEndpoint) Sleep(d time.Duration) { e.box.sleep(d) }

// PollInterval can be 10x the simulator's: Sleep wakes early on arrival, so
// a long interval only meters the no-traffic case instead of adding latency.
func (e *WallEndpoint) PollInterval() time.Duration { return 10 * time.Millisecond }

// localNet is the in-process sender: the mailboxes of a run held in one
// address space (RunReal's goroutines), a Send being a Put.
type localNet struct {
	start time.Time
	boxes []*Mailbox // slots 0..n-1, then the master's
}

func newLocalNet(slots int) *localNet {
	n := &localNet{start: time.Now(), boxes: make([]*Mailbox, slots+1)}
	for i := range n.boxes {
		n.boxes[i] = NewMailbox()
	}
	return n
}

func (n *localNet) box(id int) *Mailbox {
	if id == cluster.MasterID {
		return n.boxes[len(n.boxes)-1]
	}
	return n.boxes[id]
}

// endpoint builds process id's endpoint on the shared time origin.
func (n *localNet) endpoint(id int, drag float64) *WallEndpoint {
	return NewWallEndpoint(n.box(id), n.start, drag, func(to int, tag string, data interface{}) {
		n.box(to).Put(cluster.Msg{From: id, Tag: tag, Data: data})
	})
}

// fail poisons every mailbox of the run.
func (n *localNet) fail(err error) {
	for _, b := range n.boxes {
		b.Fail(err)
	}
}
