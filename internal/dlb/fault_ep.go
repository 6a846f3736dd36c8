package dlb

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
)

// crashExit is the panic sentinel an injected crash raises; the spawn
// wrapper recovers it and lets the process die silently, exactly as a
// failed workstation would. evictExit is its counterpart for zombies killed
// by a directed EvictMsg after the master already recovered past them.
type crashExit struct{}
type evictExit struct{}

// isFaultExit reports whether a recovered panic value is a deliberate
// process death rather than a bug.
func isFaultExit(r interface{}) bool {
	switch r.(type) {
	case crashExit, evictExit:
		return true
	}
	return false
}

// epochRestart unwinds a slave's execution stack back to its top-level
// epoch loop when a recovery AdoptMsg arrives (the slave may be blocked
// arbitrarily deep in the step tree, e.g. waiting on pipeline data from the
// dead neighbor).
type epochRestart struct {
	msg AdoptMsg
}

// faultEP wraps an Endpoint with failure injection: the process halts at
// its first operation at/after its scheduled crash time, freezes through
// stall windows, and loses messages while either endpoint's link is down.
// The same wrapper serves the simulated cluster (virtual time,
// deterministic) and the wall-clock endpoint (goroutines and TCP alike).
type faultEP struct {
	Endpoint
	id      int
	inj     *fault.Injector
	log     *fault.Log // nil on wall clock (no lock; the simulator is single-threaded)
	stalled bool
	crashed bool
}

func newFaultEP(inner Endpoint, id int, inj *fault.Injector, log *fault.Log) Endpoint {
	if inj == nil || inj.Empty() {
		return inner
	}
	return &faultEP{Endpoint: inner, id: id, inj: inj, log: log}
}

// check enforces the schedule at every endpoint operation.
func (e *faultEP) check() {
	now := e.Endpoint.Now()
	if e.inj.Crashed(e.id, now) {
		if !e.crashed {
			e.crashed = true
			e.log.Add(now, fault.LogCrash, e.id, "injected crash")
		}
		panic(crashExit{})
	}
	if e.stalled {
		return // re-entered from the stall sleep itself
	}
	if until := e.inj.StallUntil(e.id, now); until > now {
		e.stalled = true
		e.log.Add(now, fault.LogStall, e.id, "frozen until %.2fs", until.Seconds())
		e.Endpoint.Sleep(until - now)
		e.stalled = false
		e.check() // the crash may fall inside the stall window
	}
}

// Compute checks the schedule before the charge and again before the body:
// a crash or stall that falls inside the charged stretch strikes before
// the work runs.
func (e *faultEP) Compute(cost time.Duration, fn func()) {
	e.check()
	e.Endpoint.Compute(cost, nil)
	if fn != nil {
		e.check()
		e.Endpoint.Compute(0, fn)
	}
}

func (e *faultEP) Send(to int, tag string, data interface{}) {
	e.check()
	now := e.Endpoint.Now()
	if e.inj.LinkDown(e.id, now) || e.inj.LinkDown(to, now) {
		return // dropped on the floor
	}
	e.Endpoint.Send(to, tag, data)
}

func (e *faultEP) Recv(from int, tag string) cluster.Msg {
	e.check()
	return e.Endpoint.Recv(from, tag)
}

func (e *faultEP) TryRecv(from int, tag string) (cluster.Msg, bool) {
	e.check()
	return e.Endpoint.TryRecv(from, tag)
}

func (e *faultEP) Sleep(d time.Duration) {
	if !e.stalled {
		e.check()
	}
	e.Endpoint.Sleep(d)
}
