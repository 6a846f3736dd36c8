package dlb

import (
	"errors"
	"sync/atomic"
)

// ErrPreempted is returned by RunMasterOn when a run was stopped through
// Config.Preempt: the Result carries the committed stop checkpoint in
// Result.Checkpoint, and the run continues later by handing that snapshot
// to Config.Resume. It is a scheduling outcome, not a failure.
var ErrPreempted = errors.New("dlb: run preempted at checkpoint")

// PreemptControl lets a scheduler request a cooperative stop of a running
// master. Request may be called from any goroutine at any time; the master
// notices it at its next load-balancing round, forces a consistent
// checkpoint there, releases every slave (they see an ordinary eviction),
// and unwinds with ErrPreempted. A run that completes before the next
// checkpointable round simply finishes — callers must handle both
// outcomes.
type PreemptControl struct {
	flag atomic.Bool
}

// Request asks the master to stop at its next consistent checkpoint.
func (p *PreemptControl) Request() { p.flag.Store(true) }

// Requested reports whether a stop has been requested. Safe on nil.
func (p *PreemptControl) Requested() bool { return p != nil && p.flag.Load() }

// preemptStop unwinds the master loop after the stop checkpoint committed
// and every participant was released; RunMasterOn turns it into
// ErrPreempted.
type preemptStop struct{}
