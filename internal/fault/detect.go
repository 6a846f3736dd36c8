package fault

import "time"

// DetectorConfig tunes master-side failure detection. Detection is layered
// on the existing status/instruction exchange plus lightweight heartbeats
// slaves emit at load-balancing hook sites between contacts: a slave whose
// last sign of life is older than its lease — k missed hook deadlines'
// worth of time — is declared dead.
type DetectorConfig struct {
	// MinLease is a floor on the lease, covering startup and very short
	// balancing periods. Default 2s.
	MinLease time.Duration
	// MaxLease caps the lease so huge hook-skip counts cannot make
	// detection arbitrarily slow. Default 20s.
	MaxLease time.Duration
	// HeartbeatEvery is how often slaves emit heartbeats between contacts
	// (checked at hook sites). Default 500ms.
	HeartbeatEvery time.Duration
}

// missThreshold is k, the number of expected contact intervals (and of
// heartbeat intervals) a slave may miss before it is declared dead.
const missThreshold = 3

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.MinLease <= 0 {
		c.MinLease = 2 * time.Second
	}
	if c.MaxLease <= 0 {
		c.MaxLease = 20 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	return c
}

// Detector tracks per-slave liveness leases on the master.
type Detector struct {
	cfg      DetectorConfig
	lastSeen []time.Duration
	interval time.Duration // observed contact-round interval
}

// NewDetector creates a detector for the given number of slave slots; every
// slot's lease starts at time zero.
func NewDetector(cfg DetectorConfig, slots int) *Detector {
	return &Detector{cfg: cfg.withDefaults(), lastSeen: make([]time.Duration, slots)}
}

// Config returns the effective (defaulted) configuration.
func (d *Detector) Config() DetectorConfig { return d.cfg }

// Observe records a sign of life (status, heartbeat, checkpoint, join)
// from the slave at time now.
func (d *Detector) Observe(slave int, now time.Duration) {
	if slave >= 0 && slave < len(d.lastSeen) && now > d.lastSeen[slave] {
		d.lastSeen[slave] = now
	}
}

// ObserveInterval records the time between consecutive contact rounds, the
// base unit of the lease ("k missed hook deadlines").
func (d *Detector) ObserveInterval(dt time.Duration) {
	if dt > 0 {
		d.interval = dt
	}
}

// Reset restarts every live slot's lease at now (after a recovery epoch,
// when slaves re-execute from the checkpoint and contact times shift).
func (d *Detector) Reset(now time.Duration) {
	for i := range d.lastSeen {
		d.lastSeen[i] = now
	}
}

// Lease is the current time budget between signs of life: k contact
// intervals, floored by MinLease (it also covers heartbeat gaps) and capped
// by MaxLease.
func (d *Detector) Lease() time.Duration {
	l := missThreshold * d.interval
	if hb := missThreshold * d.cfg.HeartbeatEvery; l < hb {
		l = hb
	}
	if l < d.cfg.MinLease {
		l = d.cfg.MinLease
	}
	if l > d.cfg.MaxLease {
		l = d.cfg.MaxLease
	}
	return l
}

// Deadline is the earliest future time at which the given slave could be
// declared dead.
func (d *Detector) Deadline(slave int) time.Duration {
	return d.lastSeen[slave] + d.Lease()
}

// Expired returns the slaves among candidates whose lease has run out at
// time now.
func (d *Detector) Expired(now time.Duration, candidates []int) []int {
	var out []int
	lease := d.Lease()
	for _, s := range candidates {
		if now-d.lastSeen[s] >= lease {
			out = append(out, s)
		}
	}
	return out
}
