package netrun

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/dlb"
	"repro/internal/dlb/wire"
)

// crossDialed builds what two slaves that dialed each other for the same
// exchange end up with: routers a (node 0) and b (node 1) joined by two
// connections, x (a's dial) and y (b's dial), over net.Pipe. attached is
// called on a router after each of its two attaches (nth = 1, 2), so a
// test can put frames in flight on either side of the moment the second
// connection appears; a has attached both before b attaches any. a always
// registers its own dial first; bOwnFirst says whether b does too (each
// direction then has its own socket) or accepts a's dial first (both pick
// x, and y is orphaned on both routers).
func crossDialed(bOwnFirst bool, attached func(r *router, peer, nth int)) (a, b *router) {
	a = newRouter(0, "", Timeouts{}, false)
	b = newRouter(1, "", Timeouts{}, false)
	xa, xb := net.Pipe()
	ya, yb := net.Pipe()
	bConns := []net.Conn{xb, yb}
	if bOwnFirst {
		bConns = []net.Conn{yb, xb}
	}
	for i, nc := range []net.Conn{xa, ya} {
		a.attach(1, nc, wire.NewConn(nc), false)
		attached(a, 1, i+1)
	}
	for i, nc := range bConns {
		b.attach(0, nc, wire.NewConn(nc), false)
		attached(b, 0, i+1)
	}
	return a, b
}

func sendNumbered(r *router, peer, lo, hi int) {
	for i := lo; i < hi; i++ {
		r.send(peer, "pipe:x", dlb.SliceMsg{Unit: i})
	}
}

// closeBoth closes both routers and fails the test if either close does
// not return: a connection neither side addresses any more must not keep a
// reader, and through it close, waiting forever.
func closeBoth(t *testing.T, a, b *router) {
	t.Helper()
	done := make(chan struct{}, 2)
	for _, r := range []*router{a, b} {
		go func(r *router) { r.close(); done <- struct{}{} }(r)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("router.close() wedged on a connection nobody closes")
		}
	}
}

// settlesTo waits for the goroutine count to come back down to base.
func settlesTo(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the routers existed: a reader or writer outlived close", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrossAttachKeepsFIFO: when a second connection to a peer appears
// mid-stream, everything one router sends that peer still arrives in the
// order it was sent. Each router queues 1 500 frames before its second
// attach and 1 500 right after it — node 0 all 3 000 before node 1 reads
// anything, so a router that moved its send target to the newer connection
// delivers frame 1 500 ahead of frame 0 — and 7 000 more follow while both
// directions drain.
func TestCrossAttachKeepsFIFO(t *testing.T) {
	const n, batch = 10000, 1500
	for _, bOwnFirst := range []bool{true, false} {
		base := runtime.NumGoroutine()
		a, b := crossDialed(bOwnFirst, func(r *router, peer, nth int) {
			sendNumbered(r, peer, (nth-1)*batch, nth*batch)
		})
		for _, d := range []struct {
			r    *router
			peer int
		}{{a, 1}, {b, 0}} {
			go sendNumbered(d.r, d.peer, 2*batch, n)
		}
		for _, d := range []struct {
			r    *router
			from int
		}{{a, 1}, {b, 0}} {
			ep := d.r.endpoint(1)
			for want := 0; want < n; want++ {
				if got := ep.Recv(d.from, "pipe:x").Data.(dlb.SliceMsg).Unit; got != want {
					t.Fatalf("bOwnFirst=%v: node %d received frame %d from node %d where frame %d was due", bOwnFirst, d.r.id, got, d.from, want)
				}
			}
		}
		closeBoth(t, a, b)
		settlesTo(t, base)
	}
}

// TestCloseWithConnectionOrphanedOnBothEnds: both routers attached x
// before y, so whichever rule picks the send link picks the same
// connection on both and the other has a reader at each end and a writer
// at neither. Nothing will ever close it but close() itself.
func TestCloseWithConnectionOrphanedOnBothEnds(t *testing.T) {
	base := runtime.NumGoroutine()
	a, b := crossDialed(false, func(*router, int, int) {})
	a.send(1, "pipe:x", dlb.SliceMsg{Unit: 7})
	if got := b.endpoint(1).Recv(0, "pipe:x").Data.(dlb.SliceMsg).Unit; got != 7 {
		t.Fatalf("received unit %d, want 7", got)
	}
	closeBoth(t, a, b)
	settlesTo(t, base)
}
