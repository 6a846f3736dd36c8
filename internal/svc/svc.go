// Package svc is the multi-tenant cluster service: a long-lived front door
// that accepts compiled-plan jobs over HTTP/JSON, holds them in a bounded
// admission queue, and leases subsets of a shared slave-daemon pool to
// concurrently running masters. It is the scheduling layer above the
// per-run fault policy: where FaultPolicy decides how one run survives its
// slaves, the service decides which runs get slaves at all.
//
// Scheduling. Jobs carry a tenant and a priority class. The waiting set is
// ordered by class, then weighted max-min fairness over accumulated
// slave-seconds per tenant, then admission order. Each running job holds
// an exclusive lease — a daemon serves one session at a time, so leases
// are the isolation boundary between concurrent masters. When a
// high-priority job cannot fit, the service preempts running jobs of
// strictly lower classes through the checkpoint machinery: the run cuts a
// consistent checkpoint at the next eligible round, releases its lease,
// and re-enters the waiting set; the resume replays the snapshot through
// the ordinary recovery path, so the finished result is bit-identical to
// an uninterrupted run.
package svc

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/compile"
	"repro/internal/dlb"
	"repro/internal/fault"
	"repro/internal/netrun"
)

// Service API errors beyond ErrQueueFull.
var (
	ErrClosed   = errors.New("svc: service is closed")
	ErrNotFound = errors.New("svc: no such job")
	ErrNotDone  = errors.New("svc: job has not finished")
)

// Options configures a Service: its pool and its scheduling. What a job
// runs — tier, cost model — is named by the job's own JobSpec.
type Options struct {
	// Addrs is the shared slave pool: one dlbd address per daemon
	// (required, non-empty).
	Addrs []string
	// MaxQueue bounds the waiting set; submissions beyond it are rejected
	// with ErrQueueFull (default 64).
	MaxQueue int
	// Weights are per-tenant fairness weights; absent tenants weigh 1.
	Weights map[string]float64
	// Detect tunes failure detection for all runs; the zero value uses the
	// fault package defaults.
	Detect fault.DetectorConfig
	// Ckpt is the checkpoint cadence; its MinInterval also bounds how
	// stale a preemption snapshot can be (default MinInterval 300ms).
	Ckpt fault.CkptPolicy
	// Timeouts bounds each run's transport operations.
	Timeouts netrun.Timeouts
	// Logf receives service events (nil: silent).
	Logf func(format string, args ...interface{})
}

// Service is the daemon front door. Create with New, serve its Handler
// over HTTP, Close to drain.
type Service struct {
	opt   Options
	start time.Time

	mu     sync.Mutex
	pool   *pool
	queue  *queue
	plans  *planCache
	jobs   map[string]*Job
	order  []*Job // admission order, for listing
	stats  *stats
	seq    int
	closed bool

	kick     chan struct{}
	quit     chan struct{}
	wg       sync.WaitGroup // running masters
	loopDone chan struct{}
}

// New validates the options and starts the scheduler.
func New(opt Options) (*Service, error) {
	if len(opt.Addrs) == 0 {
		return nil, fmt.Errorf("svc: empty slave pool")
	}
	if opt.Ckpt.MinInterval <= 0 {
		opt.Ckpt.MinInterval = 300 * time.Millisecond
	}
	s := &Service{
		opt:      opt,
		start:    time.Now(),
		pool:     newPool(opt.Addrs),
		queue:    newQueue(opt.MaxQueue),
		plans:    newPlanCache(),
		jobs:     map[string]*Job{},
		stats:    newStats(opt.Weights),
		kick:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	go s.loop()
	return s, nil
}

func (s *Service) logf(format string, args ...interface{}) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// realQuantum is the target per-block compute time shipped to every run.
const realQuantum = 2 * time.Millisecond

// cfgFor builds the run Config for a spec. Every job runs with the fault
// machinery on: checkpoints are both the crash-recovery substrate and the
// preemption mechanism.
func (s *Service) cfgFor(plan *compile.Plan, spec JobSpec) dlb.Config {
	return dlb.Config{
		Plan:        plan,
		Params:      spec.Params,
		DLB:         true,
		Synchronous: spec.Synchronous,
		Kernel:      spec.Kernel,
		CostModel:   spec.CostModel,
		RealQuantum: realQuantum,
		Fault:       &fault.Plan{},
		Detect:      s.opt.Detect,
		Ckpt:        s.opt.Ckpt,
	}
}

// resolve normalizes spec and validates it against the limit that never
// changes: the pool size.
func (s *Service) resolve(spec JobSpec) (JobSpec, error) {
	if err := spec.normalize(); err != nil {
		return spec, err
	}
	if pool := len(s.opt.Addrs); spec.Slaves > pool {
		return spec, fmt.Errorf("svc: job wants %d slaves, pool has %d", spec.Slaves, pool)
	}
	return spec, nil
}

// refusal is the admission check that needs the lock: a closed service or a
// full queue turns the tenant's submission away.
func (s *Service) refusal(tenant string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.queue.len() >= s.queue.max {
		s.stats.tenant(tenant).Rejected++
		return ErrQueueFull
	}
	return nil
}

// plan resolves spec's cache entry. It runs without s.mu — the plan cache
// synchronizes itself — so a miss (parse, compile, Prepare's two
// instantiations) stalls neither the scheduler nor status polls nor
// /statsz.
func (s *Service) plan(spec JobSpec) (*planEntry, error) {
	return s.plans.lookup(spec, func(p *compile.Plan) dlb.Config { return s.cfgFor(p, spec) })
}

// Warm compiles spec's plan into the cache without enqueuing a job, so a
// later Submit of the same spec admits at cache-hit speed. Compilation
// happens synchronously on the caller.
func (s *Service) Warm(spec JobSpec) error {
	spec, err := s.resolve(spec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	_, err = s.plan(spec)
	return err
}

// Submit admits a job: compile (or hit the plan cache), enqueue, kick the
// scheduler. Returns the job ID.
func (s *Service) Submit(spec JobSpec) (string, error) {
	spec, err := s.resolve(spec)
	if err != nil {
		return "", err
	}
	// Shed load before paying for a compile, then take the lock again only
	// to admit.
	if err := s.refusal(spec.Tenant); err != nil {
		return "", err
	}
	entry, err := s.plan(spec)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrClosed
	}
	t := s.stats.tenant(spec.Tenant)
	j := &Job{
		ID:          fmt.Sprintf("j-%06d", s.seq+1),
		Seq:         s.seq + 1,
		Spec:        spec,
		State:       StateQueued,
		SubmittedAt: time.Now(),
		entry:       entry,
	}
	if err := s.queue.add(j, false); err != nil {
		t.Rejected++
		return "", err
	}
	s.seq++
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	t.Submitted++
	s.kickSched()
	return j.ID, nil
}

// Cancel stops a job: waiting jobs leave the queue immediately; a running
// job is preempted and discarded when its lease drains. Terminal jobs are
// a no-op.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return ErrNotFound
	}
	now := time.Now()
	switch j.State {
	case StateQueued, StatePreempted:
		s.queue.remove(j)
		wait := now.Sub(j.waitFrom())
		j.Waited += wait
		s.stats.tenant(j.Spec.Tenant).WaitedMS += wait.Milliseconds()
		j.State = StateCanceled
		j.ckpt = nil
		j.DoneAt = now
		s.stats.tenant(j.Spec.Tenant).Canceled++
		s.kickSched()
	case StateRunning:
		j.cancel = true
		j.preempt.Request()
	}
	return nil
}

// Status returns a job's API view.
func (s *Service) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, ErrNotFound
	}
	return j.statusLocked(time.Now()), nil
}

// List returns every job's API view in admission order.
func (s *Service) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	out := make([]JobStatus, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, j.statusLocked(now))
	}
	return out
}

// JobResult is the terminal outcome view.
type JobResult struct {
	JobStatus
	ElapsedMS int64            `json:"elapsed_ms"`
	Counters  map[string]int64 `json:"counters,omitempty"`
	Arrays    []ArraySum       `json:"arrays,omitempty"`
}

// Result returns a finished job's outcome; ErrNotDone while the job is
// still queued, running, or preempted.
func (s *Service) Result(id string) (JobResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobResult{}, ErrNotFound
	}
	if !j.finished() {
		return JobResult{}, ErrNotDone
	}
	r := JobResult{
		JobStatus: j.statusLocked(time.Now()),
		ElapsedMS: j.Elapsed.Milliseconds(),
		Arrays:    j.Sums,
	}
	if j.Counters != nil {
		r.Counters = map[string]int64(j.Counters)
	}
	return r, nil
}

// Statsz snapshots the service telemetry.
func (s *Service) Statsz() Statsz {
	s.mu.Lock()
	defer s.mu.Unlock()
	z := Statsz{
		UptimeMS:   time.Since(s.start).Milliseconds(),
		PoolSize:   s.pool.size(),
		PoolFree:   s.pool.freeLen(),
		QueueDepth: s.queue.len(),
		QueueMax:   s.queue.max,
		Jobs:       map[string]int{},
		Tenants:    map[string]*tenantStats{},
	}
	z.CompileCacheHits, z.CompileCacheMisses = s.plans.compiled.Stats()
	for _, j := range s.jobs {
		z.Jobs[j.State]++
		if j.State == StateRunning {
			z.Running++
		}
	}
	for name, t := range s.stats.tenants {
		cp := *t
		cp.Counters = metricsCopy(t.Counters)
		z.Tenants[name] = &cp
	}
	return z
}

// Close stops admission, preempts every running job (their checkpoints
// are discarded), and waits for all leases to drain.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.loopDone
		s.wg.Wait()
		return
	}
	s.closed = true
	for _, j := range s.jobs {
		if j.State == StateRunning {
			j.cancel = true
			j.preempt.Request()
		}
	}
	s.mu.Unlock()
	close(s.quit)
	<-s.loopDone
	s.wg.Wait()
}

// kickSched nudges the scheduler; callers hold s.mu (the channel is
// buffered, so the nudge never blocks).
func (s *Service) kickSched() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// loop is the scheduler goroutine: every kick re-examines the waiting set.
func (s *Service) loop() {
	defer close(s.loopDone)
	for {
		select {
		case <-s.quit:
			return
		case <-s.kick:
		}
		s.schedule()
	}
}

// schedule places waiting jobs onto the pool in fairness order. The scan
// is head-of-line blocking: it stops at the first job that cannot be
// placed (possibly after requesting preemptions on its behalf), so freed
// capacity is never drained away from the job whose turn it is.
func (s *Service) schedule() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		j := s.queue.pick(s.stats.served)
		if j == nil {
			return
		}
		need := j.Spec.Slaves
		if s.pool.freeLen() >= need {
			s.queue.remove(j)
			s.startLocked(j)
			continue
		}
		s.preemptForLocked(j, need)
		return
	}
}

// preemptForLocked requests enough lower-class preemptions for j to fit,
// if reclaiming every lower-class lease would fit it at all. Victims stop
// at their next consistent checkpoint; until their leases drain, the
// head-of-line scan keeps the freed capacity reserved for j.
func (s *Service) preemptForLocked(j *Job, need int) {
	avail := s.pool.freeLen()
	var victims []*Job
	for _, r := range s.order {
		if r.State != StateRunning || classRank(r.Spec.Priority) <= classRank(j.Spec.Priority) {
			continue
		}
		if r.preemptRequested {
			avail += len(r.lease) // already draining: capacity in flight
			continue
		}
		victims = append(victims, r)
	}
	reachable := avail
	for _, v := range victims {
		reachable += len(v.lease)
	}
	if reachable < need {
		return // even preempting everything weaker wouldn't fit: don't churn
	}
	// Weakest class first; within a class the most recently started loses
	// (it has the least sunk progress).
	sort.Slice(victims, func(a, b int) bool {
		va, vb := victims[a], victims[b]
		if ra, rb := classRank(va.Spec.Priority), classRank(vb.Spec.Priority); ra != rb {
			return ra > rb
		}
		return va.StartedAt.After(vb.StartedAt)
	})
	for _, v := range victims {
		if avail >= need {
			break
		}
		v.preemptRequested = true
		v.preempt.Request()
		avail += len(v.lease)
		s.logf("svc: preempting %s (%s/%s) to fit %s (%s/%s)",
			v.ID, v.Spec.Tenant, v.Spec.Priority, j.ID, j.Spec.Tenant, j.Spec.Priority)
	}
}

// startLocked leases slots to j and launches its master.
func (s *Service) startLocked(j *Job) {
	now := time.Now()
	wait := now.Sub(j.waitFrom())
	j.Waited += wait
	s.stats.tenant(j.Spec.Tenant).WaitedMS += wait.Milliseconds()
	resume := j.ckpt
	if j.State == StatePreempted {
		j.Resumes++
		s.stats.tenant(j.Spec.Tenant).Resumes++
	}
	j.ckpt = nil
	j.State = StateRunning
	j.StartedAt = now
	j.lease = s.pool.lease(j.Spec.Slaves)
	j.preempt = &dlb.PreemptControl{}
	j.preemptRequested = false
	if j.cancel {
		// Canceled between preemption and resume: don't relaunch.
		j.preempt.Request()
	}

	cfg := s.cfgFor(j.entry.plan, j.Spec)
	cfg.Preempt = j.preempt
	cfg.Resume = resume
	addrs := s.pool.leaseAddrs(j.lease)
	s.logf("svc: starting %s (%s/%s) on %d slaves%s",
		j.ID, j.Spec.Tenant, j.Spec.Priority, len(addrs), map[bool]string{true: " (resume)", false: ""}[resume != nil])
	s.wg.Add(1)
	go s.runJob(j, cfg, addrs, now)
}

// runJob drives one lease to completion and books the outcome.
func (s *Service) runJob(j *Job, cfg dlb.Config, addrs []string, started time.Time) {
	defer s.wg.Done()
	res, err := netrun.RunMaster(cfg, addrs, netrun.MasterOptions{
		Prepared: j.entry.pre,
		Timeouts: s.opt.Timeouts,
	})
	now := time.Now()

	s.mu.Lock()
	held := now.Sub(started)
	j.Ran += held
	s.stats.charge(j.Spec.Tenant, len(j.lease), held)
	s.pool.release(j.lease)
	j.lease = nil
	j.preempt = nil
	t := s.stats.tenant(j.Spec.Tenant)
	if res != nil {
		for k, v := range res.Counters {
			t.Counters[k] += v
		}
	}
	switch {
	case j.cancel:
		j.State = StateCanceled
		j.DoneAt = now
		t.Canceled++
		s.logf("svc: %s canceled", j.ID)
	case err == nil:
		j.State = StateDone
		j.DoneAt = now
		j.Elapsed = res.Elapsed
		j.Counters = res.Counters
		j.Sums = checksums(res)
		t.Done++
		s.logf("svc: %s done in %v (waited %v)", j.ID, j.Ran, j.Waited)
	case errors.Is(err, dlb.ErrPreempted):
		j.State = StatePreempted
		j.ckpt = res.Checkpoint
		j.DoneAt = now // marks when this wait segment began (see waitFrom)
		j.Preemptions++
		t.Preemptions++
		s.queue.add(j, true)
		s.logf("svc: %s preempted at checkpoint %d", j.ID, res.Checkpoint.Seq)
	default:
		j.State = StateFailed
		j.Err = err.Error()
		j.DoneAt = now
		t.Failed++
		s.logf("svc: %s failed: %v", j.ID, err)
	}
	s.kickSched()
	s.mu.Unlock()
}

func metricsCopy(c map[string]int64) map[string]int64 {
	cp := make(map[string]int64, len(c))
	for k, v := range c {
		cp[k] = v
	}
	return cp
}
