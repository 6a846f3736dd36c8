package svc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/dlb"
	"repro/internal/fault"
	"repro/internal/loopir"
	"repro/internal/metrics"
)

// Priority classes, strongest first. A higher class may preempt running
// jobs of a strictly lower class when the pool cannot otherwise fit it.
const (
	PriorityHigh   = "high"
	PriorityNormal = "normal"
	PriorityLow    = "low"
)

// classRank orders priorities for scheduling: smaller is stronger.
func classRank(p string) int {
	switch p {
	case PriorityHigh:
		return 0
	case PriorityNormal, "":
		return 1
	case PriorityLow:
		return 2
	}
	return -1
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StatePreempted = "preempted" // checkpointed and waiting to resume
	StateDone      = "done"
	StateFailed    = "failed"
	StateCanceled  = "canceled"
)

// JobSpec is what a client submits: a program in the source language plus
// the distribution directive and run parameters — the same payload a
// master ships to slave daemons (wire.RunSpec), so the service compiles
// exactly what a standalone master would. The service adds scheduling
// metadata: tenant, priority class, and the slave count to lease.
type JobSpec struct {
	// Tenant names the submitting principal; fairness weights and the
	// per-tenant telemetry key off it (default "default").
	Tenant string `json:"tenant,omitempty"`
	// Priority is "high", "normal" (default) or "low".
	Priority string `json:"priority,omitempty"`
	// Program is the source text (the repo's loop language).
	Program string `json:"program"`
	// Params instantiates the program's symbolic sizes.
	Params map[string]int `json:"params,omitempty"`
	// DistDims maps array name to distributed dimension; DistLoops names
	// the loops to strip-mine (the @distribute directive).
	DistDims  map[string]int `json:"dist_dims,omitempty"`
	DistLoops []string       `json:"dist_loops,omitempty"`
	// Slaves is how many pool daemons to lease (default 1).
	Slaves int `json:"slaves,omitempty"`
	// Synchronous disables pipelined master interactions.
	Synchronous bool `json:"synchronous,omitempty"`
	// Kernel pins the execution tier ("kernel", the VM, or "aot"). Empty
	// runs native where the build pays for itself and on the VM otherwise,
	// deciding per job before anything is emitted. Both tiers are
	// bit-identical; "aot" pays a one-time toolchain build per program,
	// cached on disk across jobs.
	Kernel string `json:"kernel,omitempty"`
	// CostModel selects the balancer's view of work units ("uniform" or
	// "learned"; empty: "uniform"). Learned weighting helps irregular
	// programs (sparse rows, power-law bins) balance on measured cost.
	CostModel string `json:"cost_model,omitempty"`
}

func (s *JobSpec) normalize() error {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Priority == "" {
		s.Priority = PriorityNormal
	}
	if classRank(s.Priority) < 0 {
		return fmt.Errorf("svc: unknown priority %q", s.Priority)
	}
	if s.Program == "" {
		return fmt.Errorf("svc: empty program")
	}
	if s.Slaves <= 0 {
		s.Slaves = 1
	}
	if _, err := (dlb.Config{Kernel: s.Kernel}).KernelTier(); err != nil {
		return fmt.Errorf("svc: %w", err)
	}
	if _, err := (dlb.Config{CostModel: s.CostModel}).CostModelMode(); err != nil {
		return fmt.Errorf("svc: %w", err)
	}
	return nil
}

// ArraySum is one result array's integrity record: clients verify outputs
// against a reference run by checksum without downloading the data.
type ArraySum struct {
	Name   string `json:"name"`
	Dims   []int  `json:"dims"`
	SHA256 string `json:"sha256"`
}

// Job is one submitted run and its full lifecycle. All fields beyond the
// immutable ones are guarded by the owning Service's mutex.
type Job struct {
	ID   string
	Seq  int // admission order, FIFO tiebreak within a tenant
	Spec JobSpec

	State       string
	SubmittedAt time.Time
	StartedAt   time.Time // latest lease start
	DoneAt      time.Time
	Waited      time.Duration // total time spent queued or preempted
	Ran         time.Duration // total time holding a lease

	entry            *planEntry // compiled plan + pinned instantiation
	lease            []int      // pool slots currently held (nil unless running)
	preempt          *dlb.PreemptControl
	preemptRequested bool              // a drain is in flight for this lease
	ckpt             *fault.Checkpoint // set while preempted
	cancel           bool              // cancel requested; resolves when the lease drains

	Preemptions int
	Resumes     int

	Err      string
	Elapsed  time.Duration // master-measured elapsed of the finishing run
	Counters metrics.Counters
	Sums     []ArraySum
}

// runnable reports whether the job is waiting for a lease.
func (j *Job) runnable() bool { return j.State == StateQueued || j.State == StatePreempted }

// finished reports whether the job reached a terminal state.
func (j *Job) finished() bool {
	return j.State == StateDone || j.State == StateFailed || j.State == StateCanceled
}

// checksums fingerprints the gathered result arrays (float64 little-endian
// bytes, row-major) in sorted name order.
func checksums(res *dlb.Result) []ArraySum {
	var sums []ArraySum
	names := make([]string, 0, len(res.Final))
	for name := range res.Final {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sums = append(sums, arraySum(res.Final[name]))
	}
	return sums
}

// arraySum fingerprints one array.
func arraySum(arr *loopir.Array) ArraySum {
	h := sha256.New()
	var buf [8]byte
	for _, v := range arr.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return ArraySum{
		Name:   arr.Name,
		Dims:   append([]int(nil), arr.Dims...),
		SHA256: hex.EncodeToString(h.Sum(nil)),
	}
}

// JobStatus is the API view of a job.
type JobStatus struct {
	ID          string        `json:"id"`
	Tenant      string        `json:"tenant"`
	Priority    string        `json:"priority"`
	State       string        `json:"state"`
	Slaves      int           `json:"slaves"`
	SubmittedAt time.Time     `json:"submitted_at"`
	StartedAt   *time.Time    `json:"started_at,omitempty"`
	DoneAt      *time.Time    `json:"done_at,omitempty"`
	WaitedMS    int64         `json:"waited_ms"`
	RanMS       int64         `json:"ran_ms"`
	Preemptions int           `json:"preemptions"`
	Resumes     int           `json:"resumes"`
	Error       string        `json:"error,omitempty"`
	Elapsed     time.Duration `json:"-"`
}

// statusLocked builds the API view; the Service's mutex must be held.
func (j *Job) statusLocked(now time.Time) JobStatus {
	st := JobStatus{
		ID:          j.ID,
		Tenant:      j.Spec.Tenant,
		Priority:    j.Spec.Priority,
		State:       j.State,
		Slaves:      j.Spec.Slaves,
		SubmittedAt: j.SubmittedAt,
		WaitedMS:    j.waitedAt(now).Milliseconds(),
		RanMS:       j.ranAt(now).Milliseconds(),
		Preemptions: j.Preemptions,
		Resumes:     j.Resumes,
		Error:       j.Err,
	}
	if !j.StartedAt.IsZero() {
		t := j.StartedAt
		st.StartedAt = &t
	}
	if !j.DoneAt.IsZero() {
		t := j.DoneAt
		st.DoneAt = &t
	}
	return st
}

// waitedAt folds the in-progress wait segment into the accumulated total.
func (j *Job) waitedAt(now time.Time) time.Duration {
	w := j.Waited
	if j.runnable() {
		w += now.Sub(j.waitFrom())
	}
	return w
}

// waitFrom is when the current wait segment began.
func (j *Job) waitFrom() time.Time {
	if j.State == StatePreempted && !j.DoneAt.IsZero() {
		return j.DoneAt // DoneAt doubles as "lease released at" while non-terminal
	}
	return j.SubmittedAt
}

// ranAt folds the in-progress lease segment into the accumulated total.
func (j *Job) ranAt(now time.Time) time.Duration {
	r := j.Ran
	if j.State == StateRunning {
		r += now.Sub(j.StartedAt)
	}
	return r
}
