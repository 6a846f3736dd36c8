// Package cluster simulates a network of workstations in virtual time.
//
// It is the substrate standing in for the paper's Nectar system (Sun 4/330
// workstations on 100 MByte/s links). Each node has a CPU with a relative
// speed, an OS scheduler with a fixed time quantum, and an optional
// time-varying competing load (other users' compute-bound jobs). Messages
// between nodes pay a per-message CPU overhead on the sender plus link
// latency and bandwidth-proportional transfer time.
//
// All timing phenomena the paper's load balancer reacts to — load imbalance,
// quantum-granularity rate oscillation, communication and work-movement
// costs — are reproduced here deterministically, so experiments are pure
// functions of their parameters.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/vtime"
)

// MasterID is the node ID of the dedicated master (load-balancer) node.
// Slaves are numbered 0..Slaves-1.
const MasterID = -1

// AnySource matches messages from any sender in RecvTag.
const AnySource = -2

// Config describes a simulated cluster.
type Config struct {
	// Slaves is the number of worker nodes.
	Slaves int
	// Speed is the relative CPU speed per slave (1.0 = baseline). If nil or
	// shorter than Slaves, missing entries default to 1.0.
	Speed []float64
	// Load is the competing-load profile per slave. Missing entries default
	// to NoLoad.
	Load []LoadProfile
	// Quantum is the OS scheduler time slice. Defaults to 100 ms, matching
	// the paper's environment (its rules reference 1.5 and 5 quanta).
	Quantum time.Duration
	// LinkLatency is the fixed per-message network delay. Default 500 µs.
	LinkLatency time.Duration
	// Bandwidth is the link bandwidth in bytes per second. Default 100e6
	// (Nectar's 100 MByte/s links).
	Bandwidth float64
	// SendOverhead is the sender-side CPU cost per message (protocol
	// processing); it contends with competing load like any computation.
	// Default 200 µs.
	SendOverhead time.Duration
	// ModelWakeup adds OS rescheduling fidelity: a process blocked in a
	// receive resumes only at its node's next application quantum slot, so
	// on a loaded node every synchronization can cost up to c quanta — the
	// effect behind the paper's warning about iterations smaller than the
	// scheduling quantum (§4.4). Off by default.
	ModelWakeup bool
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Quantum <= 0 {
		cfg.Quantum = 100 * time.Millisecond
	}
	if cfg.LinkLatency <= 0 {
		cfg.LinkLatency = 500 * time.Microsecond
	}
	if cfg.Bandwidth <= 0 {
		cfg.Bandwidth = 100e6
	}
	if cfg.SendOverhead <= 0 {
		cfg.SendOverhead = 200 * time.Microsecond
	}
	return cfg
}

// Msg is a message between cluster nodes. Tags give MPI-style selective
// receive; tags must be non-empty.
type Msg struct {
	From int
	Tag  string
	Data interface{}
}

// Cluster is a set of slave nodes plus one master node sharing a virtual-
// time kernel.
type Cluster struct {
	K      *vtime.Kernel
	cfg    Config
	slaves []*Node
	master *Node
}

// New builds a cluster on the given kernel.
func New(k *vtime.Kernel, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	if cfg.Slaves < 1 {
		panic("cluster: need at least one slave")
	}
	c := &Cluster{K: k, cfg: cfg}
	for i := 0; i < cfg.Slaves; i++ {
		speed := 1.0
		if i < len(cfg.Speed) && cfg.Speed[i] > 0 {
			speed = cfg.Speed[i]
		}
		var load LoadProfile = NoLoad{}
		if i < len(cfg.Load) && cfg.Load[i] != nil {
			load = cfg.Load[i]
		}
		c.slaves = append(c.slaves, &Node{
			c:     c,
			ID:    i,
			speed: speed,
			load:  load,
			mbox:  k.NewMailbox(fmt.Sprintf("node%d", i)),
		})
	}
	c.master = &Node{
		c:     c,
		ID:    MasterID,
		speed: 1.0,
		load:  NoLoad{},
		mbox:  k.NewMailbox("master"),
	}
	return c
}

// Config returns the effective configuration (with defaults applied).
func (c *Cluster) Config() Config { return c.cfg }

// Slaves reports the number of slave nodes.
func (c *Cluster) Slaves() int { return len(c.slaves) }

// Node returns the node with the given ID (MasterID for the master).
func (c *Cluster) Node(id int) *Node {
	if id == MasterID {
		return c.master
	}
	if id < 0 || id >= len(c.slaves) {
		panic(fmt.Sprintf("cluster: no node %d", id))
	}
	return c.slaves[id]
}

// Spawn starts a process bound to the given node.
func (c *Cluster) Spawn(name string, id int, fn func(p *vtime.Proc, n *Node)) {
	n := c.Node(id)
	c.K.Spawn(name, func(p *vtime.Proc) { fn(p, n) })
}

// TransferTime reports the network time (latency + bandwidth) for a message
// of the given size, excluding sender CPU overhead.
func (c *Cluster) TransferTime(bytes int) time.Duration {
	return c.cfg.LinkLatency + time.Duration(float64(bytes)/c.cfg.Bandwidth*float64(time.Second))
}

// Node is one simulated workstation. All methods taking a *vtime.Proc must
// be called from a process spawned on this node.
type Node struct {
	c     *Cluster
	ID    int
	speed float64
	load  LoadProfile
	mbox  *vtime.Mailbox

	pending []Msg // messages received but not yet matched by RecvTag

	// accounting (virtual durations)
	cursor        time.Duration // end of the last accounted interval
	busyElapsed   time.Duration // wall time spent inside Compute
	appCPU        time.Duration // CPU actually consumed by the application
	busyCompeting time.Duration // competitor CPU consumed while app was computing
	idleCompeting time.Duration // competitor CPU consumed while app was idle
	msgsSent      int
	bytesSent     int
}

// Speed returns the node's relative CPU speed.
func (n *Node) Speed() float64 { return n.speed }

// Compute consumes the given amount of baseline CPU work (CPU time at speed
// 1.0 with no competition) and advances virtual time by the resulting
// elapsed duration, accounting for this node's speed, its competing load,
// and quantum-granular round-robin scheduling.
func (n *Node) Compute(p *vtime.Proc, cpu time.Duration) {
	if cpu <= 0 {
		return
	}
	start := p.Now()
	n.accountIdleUntil(start)
	demand := time.Duration(float64(cpu) / n.speed)
	t := start
	remaining := demand
	var competing time.Duration
	q := n.c.cfg.Quantum
	for remaining > 0 {
		c := n.load.At(t)
		change := n.load.NextChange(t)
		if c <= 0 {
			step := remaining
			if change-t < step {
				step = change - t
			}
			t += step
			remaining -= step
			continue
		}
		// Round-robin between the application and c competitors: the
		// application owns quantum slots whose index is ≡ 0 (mod c+1).
		for remaining > 0 && t < change {
			slot := int64(t / q)
			slotEnd := time.Duration(slot+1) * q
			if slotEnd > change {
				slotEnd = change
			}
			if slot%int64(c+1) == 0 {
				avail := slotEnd - t
				if avail >= remaining {
					t += remaining
					remaining = 0
				} else {
					t = slotEnd
					remaining -= avail
				}
			} else {
				competing += slotEnd - t
				t = slotEnd
			}
		}
	}
	n.busyElapsed += t - start
	n.appCPU += demand
	n.busyCompeting += competing
	n.cursor = t
	p.Sleep(t - start)
}

// accountIdleUntil charges competitor CPU for the idle window [cursor, t):
// while the application is idle, any competing jobs consume the whole CPU.
func (n *Node) accountIdleUntil(t time.Duration) {
	if t <= n.cursor {
		return
	}
	n.idleCompeting += n.loadedMeasure(n.cursor, t)
	n.cursor = t
}

// loadedMeasure returns the measure of {u in [t0,t1): load.At(u) > 0}.
func (n *Node) loadedMeasure(t0, t1 time.Duration) time.Duration {
	var total time.Duration
	t := t0
	for t < t1 {
		c := n.load.At(t)
		change := n.load.NextChange(t)
		end := t1
		if change < end {
			end = change
		}
		if c > 0 {
			total += end - t
		}
		t = end
	}
	return total
}

// FinishAt closes the accounting window at time t (typically the end of the
// application run). Call once before reading Usage.
func (n *Node) FinishAt(t time.Duration) { n.accountIdleUntil(t) }

// Usage summarizes a node's CPU accounting.
type Usage struct {
	BusyElapsed  time.Duration // wall time spent computing
	AppCPU       time.Duration // CPU consumed by the application
	CompetingCPU time.Duration // CPU consumed by competing jobs (busy + idle)
	MessagesSent int
	BytesSent    int
}

// Usage returns the node's accounting up to the last FinishAt/Compute.
func (n *Node) Usage() Usage {
	return Usage{
		BusyElapsed:  n.busyElapsed,
		AppCPU:       n.appCPU,
		CompetingCPU: n.busyCompeting + n.idleCompeting,
		MessagesSent: n.msgsSent,
		BytesSent:    n.bytesSent,
	}
}

// Send transmits a message to another node. The sender pays SendOverhead of
// contended CPU; the message is delivered after link latency plus
// bandwidth-proportional transfer time. Tags must be non-empty.
func (n *Node) Send(p *vtime.Proc, to int, tag string, bytes int, data interface{}) {
	if tag == "" {
		panic("cluster: empty message tag")
	}
	n.Compute(p, n.c.cfg.SendOverhead)
	n.msgsSent++
	n.bytesSent += bytes
	p.Send(n.c.Node(to).mbox, Msg{From: n.ID, Tag: tag, Data: data}, n.c.TransferTime(bytes))
}

func match(m Msg, from int, tag string) bool {
	if from != AnySource && m.From != from {
		return false
	}
	return tag == "" || m.Tag == tag
}

// RecvTag blocks until a message matching the source and tag arrives and
// returns it. from may be AnySource; an empty tag matches any tag.
// Non-matching messages are buffered for later RecvTag calls. With
// ModelWakeup, resuming after a blocked receive waits for the node's next
// application quantum slot.
func (n *Node) RecvTag(p *vtime.Proc, from int, tag string) Msg {
	for i, m := range n.pending {
		if match(m, from, tag) {
			n.pending = append(n.pending[:i], n.pending[i+1:]...)
			n.accountIdleUntil(p.Now())
			return m
		}
	}
	for {
		raw := p.Recv(n.mbox)
		m := raw.Data.(Msg)
		if match(m, from, tag) {
			if d := n.wakeupDelay(p.Now()); d > 0 {
				p.Sleep(d)
			}
			n.accountIdleUntil(p.Now())
			return m
		}
		n.pending = append(n.pending, m)
	}
}

// wakeupDelay returns how long a process unblocked at time t must wait for
// the OS to schedule it: zero when the node is unloaded or t falls in an
// application slot, otherwise the time to the next application slot.
func (n *Node) wakeupDelay(t time.Duration) time.Duration {
	if !n.c.cfg.ModelWakeup || n.ID == MasterID {
		return 0
	}
	q := n.c.cfg.Quantum
	start := t
	for {
		c := n.load.At(t)
		if c <= 0 {
			return t - start
		}
		slot := int64(t / q)
		if slot%int64(c+1) == 0 {
			return t - start
		}
		next := time.Duration(slot+1) * q
		if ch := n.load.NextChange(t); ch < next {
			next = ch
		}
		t = next
	}
}

// TryRecvTag returns a matching message if one has already arrived.
func (n *Node) TryRecvTag(p *vtime.Proc, from int, tag string) (Msg, bool) {
	for i, m := range n.pending {
		if match(m, from, tag) {
			n.pending = append(n.pending[:i], n.pending[i+1:]...)
			return m, true
		}
	}
	for {
		raw, ok := p.TryRecv(n.mbox)
		if !ok {
			return Msg{}, false
		}
		m := raw.Data.(Msg)
		if match(m, from, tag) {
			return m, true
		}
		n.pending = append(n.pending, m)
	}
}
