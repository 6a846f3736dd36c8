// Package fault is the fault-tolerance subsystem for the dlb runtime: it
// describes failure scenarios (deterministic, time-scheduled fault plans),
// implements the master-side failure detector (heartbeat leases layered on
// the status/instruction exchange), and decides when periodic checkpoints
// are worth their cost (the same profitability reasoning internal/core
// applies to work movement).
//
// The paper's master/slave runtime assumes every workstation survives the
// whole run; a single crashed or stalled slave deadlocks the pipeline. This
// package supplies the pieces the runtime needs to shed that assumption:
// inject faults (for evaluation), detect dead nodes, recover their work
// from checkpoints, and admit new nodes mid-run. The same types drive both
// the virtual-time simulated cluster (fully deterministic) and the
// wall-clock RunReal environment.
package fault

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind classifies a fault event.
type Kind int

const (
	// Crash halts the slave permanently at the scheduled time: its process
	// stops at its first runtime operation at or after At and never
	// communicates again.
	Crash Kind = iota
	// Stall freezes the slave for Duration starting at At: it performs no
	// computation and sends no messages during the window, then resumes. A
	// stall shorter than the detector's lease is tolerated; a longer one
	// looks like a crash and leads to eviction (the stalled slave is then
	// killed as a zombie when it wakes).
	Stall
	// LinkDrop silently discards every message to or from the slave during
	// [At, At+Duration): senders pay their overhead but nothing is
	// delivered. Missing data eventually trips the detector.
	LinkDrop
	// Join schedules a new, idle node to register with the master at time
	// At. The master admits it at the next checkpoint boundary and the
	// balancer folds it into the subsequent redistribution.
	Join
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Stall:
		return "stall"
	case LinkDrop:
		return "linkdrop"
	case Join:
		return "join"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scheduled fault. Times are measured from the start of the
// run — virtual time under the simulated cluster, wall-clock time under
// RunReal; the same Plan describes both.
type Event struct {
	Kind  Kind
	Slave int // target slave (for Join: ignored; joiner ids are assigned)
	At    time.Duration
	// Duration applies to Stall and LinkDrop windows.
	Duration time.Duration
}

func (e Event) String() string {
	switch e.Kind {
	case Stall, LinkDrop:
		return fmt.Sprintf("%v slave %d at %v for %v", e.Kind, e.Slave, e.At, e.Duration)
	case Join:
		return fmt.Sprintf("join at %v", e.At)
	}
	return fmt.Sprintf("%v slave %d at %v", e.Kind, e.Slave, e.At)
}

// Plan is a deterministic fault schedule for one run.
type Plan struct {
	Events []Event
}

// CrashAt appends a crash of the slave at time t.
func (p *Plan) CrashAt(slave int, t time.Duration) *Plan {
	p.Events = append(p.Events, Event{Kind: Crash, Slave: slave, At: t})
	return p
}

// StallAt appends a transient stall of the slave during [t, t+d).
func (p *Plan) StallAt(slave int, t, d time.Duration) *Plan {
	p.Events = append(p.Events, Event{Kind: Stall, Slave: slave, At: t, Duration: d})
	return p
}

// DropLinkAt appends a link outage for the slave during [t, t+d).
func (p *Plan) DropLinkAt(slave int, t, d time.Duration) *Plan {
	p.Events = append(p.Events, Event{Kind: LinkDrop, Slave: slave, At: t, Duration: d})
	return p
}

// JoinAt appends the registration of a new node at time t.
func (p *Plan) JoinAt(t time.Duration) *Plan {
	p.Events = append(p.Events, Event{Kind: Join, At: t})
	return p
}

// Joins returns the scheduled join times, ascending. Joiner node ids are
// assigned in this order, after the initial slaves.
func (p *Plan) Joins() []time.Duration {
	if p == nil {
		return nil
	}
	var out []time.Duration
	for _, e := range p.Events {
		if e.Kind == Join {
			out = append(out, e.At)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate rejects malformed plans (negative times, negative slave ids for
// node faults, windows without durations).
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("fault: event %v before time zero", e)
		}
		switch e.Kind {
		case Crash:
			if e.Slave < 0 {
				return fmt.Errorf("fault: crash of invalid slave %d", e.Slave)
			}
		case Stall, LinkDrop:
			if e.Slave < 0 {
				return fmt.Errorf("fault: %v of invalid slave %d", e.Kind, e.Slave)
			}
			if e.Duration <= 0 {
				return fmt.Errorf("fault: %v with non-positive duration", e.Kind)
			}
		case Join:
		default:
			return fmt.Errorf("fault: unknown event kind %d", int(e.Kind))
		}
	}
	return nil
}

// FormatSpec renders a plan back to the ParseSpec syntax. The distributed
// runtime ships fault schedules to slave daemons as spec strings (the plan
// structs never cross the wire), so FormatSpec ∘ ParseSpec must be the
// identity on every valid plan.
func FormatSpec(p *Plan) string {
	if p == nil || len(p.Events) == 0 {
		return ""
	}
	parts := make([]string, 0, len(p.Events))
	for _, e := range p.Events {
		switch e.Kind {
		case Crash:
			parts = append(parts, fmt.Sprintf("crash:%d@%g", e.Slave, e.At.Seconds()))
		case Stall:
			parts = append(parts, fmt.Sprintf("stall:%d@%g:%g", e.Slave, e.At.Seconds(), e.Duration.Seconds()))
		case LinkDrop:
			parts = append(parts, fmt.Sprintf("drop:%d@%g:%g", e.Slave, e.At.Seconds(), e.Duration.Seconds()))
		case Join:
			parts = append(parts, fmt.Sprintf("join@%g", e.At.Seconds()))
		}
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a comma-separated textual fault plan, the command-line
// syntax shared by dlbrun and dlbbench:
//
//	crash:<slave>@<sec>            crash slave at t
//	stall:<slave>@<sec>:<sec>      stall slave at t for d
//	drop:<slave>@<sec>:<sec>       drop slave's links at t for d
//	join@<sec>                     a new node registers at t
func ParseSpec(spec string) (*Plan, error) {
	p := &Plan{}
	if spec == "" || spec == "none" {
		return p, nil
	}
	for _, part := range splitComma(spec) {
		var slave int
		var at, dur float64
		switch {
		case scan(part, "crash:%d@%g", &slave, &at):
			p.CrashAt(slave, secs(at))
		case scan(part, "stall:%d@%g:%g", &slave, &at, &dur):
			p.StallAt(slave, secs(at), secs(dur))
		case scan(part, "drop:%d@%g:%g", &slave, &at, &dur):
			p.DropLinkAt(slave, secs(at), secs(dur))
		case scan(part, "join@%g", &at):
			p.JoinAt(secs(at))
		default:
			return nil, fmt.Errorf("fault: bad event %q", part)
		}
	}
	return p, p.Validate()
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func scan(s, format string, args ...interface{}) bool {
	n, err := fmt.Sscanf(s, format, args...)
	return err == nil && n == len(args)
}
