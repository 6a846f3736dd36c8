//go:build go1.23

// Package vtime implements a conservative discrete-event simulation kernel
// with coroutine-backed processes.
//
// The kernel advances a single virtual clock. Processes are ordinary Go
// functions, each a coroutine (iter.Pull) of the goroutine that calls Run:
// a process runs until it blocks in Sleep or Recv, at which point control
// switches straight back to the kernel — no scheduler, no other thread —
// which dispatches the next event in timestamp order. This gives sequential,
// deterministic semantics while letting simulation code be written in a
// natural blocking style (the same runtime code can later be pointed at a
// wall-clock environment). iter is go1.23 and the module's go line is pinned
// at 1.22 by the nested benchmark module, hence the build constraint above.
//
// Time is represented as time.Duration since the start of the simulation.
package vtime

import (
	"container/heap"
	"fmt"
	"iter"
	"runtime/debug"
	"sort"
	"time"
)

// Kernel owns the virtual clock, the event queue, and all processes.
// Create one with NewKernel, spawn processes with Spawn, then call Run.
type Kernel struct {
	now    time.Duration
	queue  eventHeap
	seq    uint64 // tie-breaker for events with equal timestamps
	procs  []*Proc
	limit  time.Duration // 0 means no limit
	failed *ProcPanic    // first process that panicked; ends Run
	free   []*event      // dispatched wake events, for Sleep to reuse
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// SetLimit sets a maximum virtual time. Run returns ErrLimit once the clock
// would pass the limit; a zero limit (the default) disables the check.
func (k *Kernel) SetLimit(limit time.Duration) { k.limit = limit }

// Now reports the current virtual time. Outside Run it reports the time at
// which the simulation stopped.
func (k *Kernel) Now() time.Duration { return k.now }

// ErrLimit is returned by Run when the virtual-time limit is exceeded.
var ErrLimit = fmt.Errorf("vtime: virtual time limit exceeded")

// DeadlockError is returned by Run when no events remain but processes are
// still blocked in Recv.
type DeadlockError struct {
	Time    time.Duration
	Blocked []string // names of the blocked processes
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("vtime: deadlock at %v: blocked processes %v", e.Time, e.Blocked)
}

// ProcPanic is returned by Run when a process function panics: the bug ends
// the simulation with an error instead of taking the whole program down.
type ProcPanic struct {
	Proc  string // name of the process
	Value any    // the value passed to panic
	Stack []byte // the process's stack at the panic
}

func (e *ProcPanic) Error() string {
	return fmt.Sprintf("%s panicked: %v", e.Proc, e.Value)
}

// reaped is the panic value that unwinds a process still blocked when Run
// returns, so that its deferred calls run and its coroutine exits.
type reaped struct{}

type eventKind int

const (
	evWake    eventKind = iota // resume a sleeping process
	evDeliver                  // append a message to a mailbox
	evStart                    // first resume of a newly spawned process
)

type event struct {
	at   time.Duration
	seq  uint64
	kind eventKind
	proc *Proc    // evWake, evStart
	mb   *Mailbox // evDeliver
	msg  Message  // evDeliver
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

func (k *Kernel) post(ev *event) {
	ev.seq = k.seq
	k.seq++
	heap.Push(&k.queue, ev)
}

// procState tracks why a process is not currently running.
type procState int

const (
	stateNew      procState = iota // spawned, not yet started
	stateRunning                   // currently executing (at most one)
	stateSleeping                  // waiting for an evWake
	stateBlocked                   // waiting for a mailbox delivery
	stateDone                      // function returned
)

// Proc is a simulation process. All methods must be called from the
// process itself (i.e. from within the function passed to Spawn).
type Proc struct {
	k      *Kernel
	name   string
	state  procState
	next   func() (struct{}, bool) // kernel -> proc: run until it blocks or ends
	yield  func(struct{}) bool     // proc -> kernel: blocked; false once reaped
	stop   func()                  // kernel -> proc: unwind and exit
	waitMB *Mailbox                // mailbox this proc is blocked on, if any
}

// Name returns the name given to Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// Spawn registers fn as a new process. It may be called before Run or from
// within a running process; in the latter case the new process starts at the
// current virtual time, after the spawning process next yields.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, state: stateNew}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.state = stateDone
			if v := recover(); v != nil && v != (reaped{}) && k.failed == nil {
				k.failed = &ProcPanic{Proc: name, Value: v, Stack: debug.Stack()}
			}
		}()
		fn(p)
	})
	k.procs = append(k.procs, p)
	k.post(&event{at: k.now, kind: evStart, proc: p})
	return p
}

// runProc transfers control to p and returns when it blocks or ends.
func (k *Kernel) runProc(p *Proc) {
	p.state = stateRunning
	p.next()
}

// block yields control to the kernel and waits to be resumed.
func (p *Proc) block(s procState) {
	p.state = s
	if !p.yield(struct{}{}) {
		panic(reaped{})
	}
	p.state = stateRunning
}

// Sleep advances the process's local time by d. A non-positive d yields to
// other processes scheduled at the current instant without advancing time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	k, ev := p.k, (*event)(nil)
	if n := len(k.free); n > 0 {
		ev, k.free = k.free[n-1], k.free[:n-1]
	} else {
		ev = new(event)
	}
	*ev = event{at: k.now + d, kind: evWake, proc: p}
	k.post(ev)
	p.block(stateSleeping)
}

// Run executes events until none remain, the time limit is exceeded, a
// deadlock is detected, or a process panics (*ProcPanic). It returns nil on
// normal completion (all processes finished or the queue drained with no
// process blocked). Whatever it returns, every process still unfinished is
// unwound first (its deferred calls run), so no coroutine outlives Run.
func (k *Kernel) Run() error {
	defer func() {
		for _, p := range k.procs {
			p.stop()
		}
	}()
	for len(k.queue) > 0 {
		ev := heap.Pop(&k.queue).(*event)
		if k.limit > 0 && ev.at > k.limit {
			k.now = k.limit
			return ErrLimit
		}
		if ev.at > k.now {
			k.now = ev.at
		}
		switch ev.kind {
		case evWake, evStart:
			if ev.kind == evWake {
				k.free = append(k.free, ev) // out of the queue; read before reused
			}
			if ev.proc.state == stateDone {
				break
			}
			k.runProc(ev.proc)
		case evDeliver:
			mb := ev.mb
			mb.q = append(mb.q, ev.msg)
			if mb.waiter != nil {
				w := mb.waiter
				mb.waiter = nil
				w.waitMB = nil
				k.runProc(w)
			}
		}
		if k.failed != nil {
			return k.failed
		}
	}
	var blocked []string
	for _, p := range k.procs {
		if p.state == stateBlocked || p.state == stateSleeping {
			blocked = append(blocked, p.name)
		}
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return &DeadlockError{Time: k.now, Blocked: blocked}
	}
	return nil
}

// Message is a datum delivered to a mailbox.
type Message struct {
	From string        // name of the sending process ("" if sent from outside)
	At   time.Duration // delivery time
	Data interface{}
}

// Mailbox is a multi-producer, single-consumer message queue with virtual-
// time delivery. At most one process may block in Recv on a mailbox at a
// time (the usual pattern is one mailbox per receiving process).
type Mailbox struct {
	k      *Kernel
	name   string
	q      []Message
	waiter *Proc
}

// NewMailbox creates a mailbox attached to the kernel.
func (k *Kernel) NewMailbox(name string) *Mailbox {
	return &Mailbox{k: k, name: name}
}

// Name returns the mailbox name.
func (mb *Mailbox) Name() string { return mb.name }

// Len reports the number of queued messages.
func (mb *Mailbox) Len() int { return len(mb.q) }

// Send schedules delivery of data to the mailbox after the given delay,
// measured from the current virtual time. It does not block the sender.
func (p *Proc) Send(mb *Mailbox, data interface{}, delay time.Duration) {
	if delay < 0 {
		delay = 0
	}
	at := p.k.now + delay
	p.k.post(&event{at: at, kind: evDeliver, mb: mb, msg: Message{From: p.name, At: at, Data: data}})
}

// Recv blocks until a message is available and returns the oldest one.
func (p *Proc) Recv(mb *Mailbox) Message {
	for len(mb.q) == 0 {
		if mb.waiter != nil {
			panic(fmt.Sprintf("vtime: mailbox %q already has waiter %q; second Recv from %q", mb.name, mb.waiter.name, p.name))
		}
		mb.waiter = p
		p.waitMB = mb
		p.block(stateBlocked)
	}
	m := mb.q[0]
	mb.q = mb.q[1:]
	return m
}

// TryRecv returns the oldest queued message without blocking. ok is false
// if the mailbox is empty.
func (p *Proc) TryRecv(mb *Mailbox) (m Message, ok bool) {
	if len(mb.q) == 0 {
		return Message{}, false
	}
	m = mb.q[0]
	mb.q = mb.q[1:]
	return m, true
}
