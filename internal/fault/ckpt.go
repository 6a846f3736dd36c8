package fault

import "time"

// CkptPolicy throttles periodic checkpoints by the same profitability
// reasoning internal/core applies to work movement: a checkpoint whose
// estimated cost exceeds MaxOverhead of the interval since the previous
// one is postponed, so checkpointing overhead is bounded by MaxOverhead of
// run time no matter how cheap or expensive snapshots are.
type CkptPolicy struct {
	// MaxOverhead is the tolerated fraction of run time spent
	// checkpointing. Default 0.05.
	MaxOverhead float64
	// MinInterval floors the time between checkpoints. Default 2s.
	MinInterval time.Duration
	// MaxInterval caps it (bounding the recomputation a failure can cost).
	// Default 15s.
	MaxInterval time.Duration
	// Disable turns periodic checkpointing off entirely; recovery then
	// restarts from the initial distribution.
	Disable bool
}

func (p CkptPolicy) withDefaults() CkptPolicy {
	if p.MaxOverhead <= 0 {
		p.MaxOverhead = 0.05
	}
	if p.MinInterval <= 0 {
		p.MinInterval = 2 * time.Second
	}
	if p.MaxInterval <= 0 {
		p.MaxInterval = 15 * time.Second
	}
	return p
}

// Should reports whether a checkpoint is due at now, given the time of the
// last committed checkpoint and the estimated cost of taking a new one.
func (p CkptPolicy) Should(now, lastCkpt, estCost time.Duration) bool {
	p = p.withDefaults()
	if p.Disable {
		return false
	}
	since := now - lastCkpt
	if since < p.MinInterval {
		return false
	}
	if since >= p.MaxInterval {
		return true
	}
	// Profitability: amortized overhead estCost/since must stay under
	// MaxOverhead.
	return float64(estCost) <= p.MaxOverhead*float64(since)
}

// Cut is the part of a consistent cut every slave shares: the resume
// coordinates needed to fast-forward a slave's control flow back to the cut
// hook, the ownership map, and the shared arrays. One record travels from
// the designated slave's checkpoint part through the committed Checkpoint
// into every recovery's adoption.
type Cut struct {
	Seq         int
	Hook        int // hook index the snapshot was taken at (-1: initial)
	Phase       int // contact-phase counter to resume with
	NextContact int // hook index of the next master contact

	// Owner and Active mirror the ownership map at the snapshot; Slaves is
	// its slave-slot count (membership may have grown since the run began).
	Slaves int
	Owner  []int
	Active []bool

	// Replicated holds the mutated replicated arrays (read-only replicated
	// arrays are reconstructed from the initial data instead of being
	// re-shipped every checkpoint).
	Replicated map[string][]float64
	// RedSnap holds the reduction-snapshot values backing Combine deltas.
	RedSnap map[string][]float64
}

// Checkpoint is the master's latest committed global snapshot: the shared
// cut plus every slave's own state, taken when every slave sits at the same
// load-balancing hook. Hook -1 denotes the initial distribution (resume
// from the start of the computation).
type Checkpoint struct {
	Cut
	At time.Duration

	// Dist holds every distributed array's slices: array -> unit -> values.
	Dist map[string]map[int][]float64
	// Red holds each slave's own reduction arrays (mid-interval partial
	// accumulations differ per slave): slave -> array -> values.
	Red map[int]map[string][]float64
}
