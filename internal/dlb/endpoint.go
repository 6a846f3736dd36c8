package dlb

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/vtime"
)

// Endpoint abstracts the environment a master or slave process runs in, so
// the identical runtime code executes on the simulated virtual-time cluster
// (simEndpoint, the evaluation substrate) and on wall clock. There is one
// wall-clock endpoint, WallEndpoint, with two senders: an in-process
// mailbox Put between RunReal's goroutines and netrun's connection router
// between OS processes.
type Endpoint interface {
	// Compute is one stretch of computation: cost is its modeled CPU cost
	// and fn, which may be nil (bookkeeping with no body), the work itself.
	// On the simulated cluster cost advances the virtual clock under the
	// node's contention model and fn runs free; on wall clock cost is
	// ignored and fn's measured duration is the busy time.
	Compute(cost time.Duration, fn func())
	// Send transmits a tagged message (non-blocking). On the simulated
	// cluster the payload's msgBytes prices the transfer.
	Send(to int, tag string, data interface{})
	// Recv blocks for a message matching source and tag (AnySource / ""
	// wildcards); non-matching messages are buffered.
	Recv(from int, tag string) cluster.Msg
	// TryRecv is the non-blocking variant.
	TryRecv(from int, tag string) (cluster.Msg, bool)
	// Busy reports accumulated busy time (the basis of rate measurement).
	Busy() time.Duration
	// Now reports elapsed time since the run started.
	Now() time.Duration
	// Sleep idles for at most d without accruing busy time (poll backoff,
	// fault windows, delayed joins): the wall-clock endpoint returns early
	// when a message lands.
	Sleep(d time.Duration)
	// PollInterval is the backoff of poll-based receive loops
	// (fault-tolerant mode) on this endpoint.
	PollInterval() time.Duration
}

// recvTimeout polls for a matching message until the timeout elapses. A
// non-positive timeout checks exactly once.
func recvTimeout(ep Endpoint, from int, tag string, timeout time.Duration) (cluster.Msg, bool) {
	deadline := ep.Now() + timeout
	poll := ep.PollInterval()
	for {
		if m, ok := ep.TryRecv(from, tag); ok {
			return m, true
		}
		now := ep.Now()
		if now >= deadline {
			return cluster.Msg{}, false
		}
		d := poll
		if deadline-now < d {
			d = deadline - now
		}
		ep.Sleep(d)
	}
}

// simEndpoint adapts a virtual-time cluster node.
type simEndpoint struct {
	p *vtime.Proc
	n *cluster.Node
}

func (e *simEndpoint) Compute(cost time.Duration, fn func()) {
	e.n.Compute(e.p, cost)
	if fn != nil {
		fn()
	}
}
func (e *simEndpoint) Send(to int, tag string, data interface{}) {
	e.n.Send(e.p, to, tag, msgBytes(data), data)
}
func (e *simEndpoint) Recv(from int, tag string) cluster.Msg {
	return e.n.RecvTag(e.p, from, tag)
}
func (e *simEndpoint) TryRecv(from int, tag string) (cluster.Msg, bool) {
	return e.n.TryRecvTag(e.p, from, tag)
}
func (e *simEndpoint) Busy() time.Duration   { return e.n.Usage().BusyElapsed }
func (e *simEndpoint) Now() time.Duration    { return e.p.Now() }
func (e *simEndpoint) Sleep(d time.Duration) { e.p.Sleep(d) }

// PollInterval on the simulated cluster makes polling deterministic: TryRecv
// plus a fixed virtual-time sleep.
func (e *simEndpoint) PollInterval() time.Duration { return time.Millisecond }
