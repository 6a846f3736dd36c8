package svc

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/lang"
	"repro/internal/loopir"
	"repro/internal/netrun"
)

// testSpec builds a JobSpec for a library program, the same shape a client
// would POST.
func testSpec(t *testing.T, name string, n, iter, slaves int) JobSpec {
	t.Helper()
	prog := loopir.Library()[name]
	if prog == nil {
		t.Fatalf("unknown program %q", name)
	}
	params := map[string]int{}
	for _, prm := range prog.Params {
		if strings.Contains(prm, "iter") {
			params[prm] = iter
		} else {
			params[prm] = n
		}
	}
	spec := JobSpec{Program: lang.Format(prog), Params: params, Slaves: slaves}
	switch name {
	case "mm":
		spec.DistDims = map[string]int{"c": 1, "b": 1}
		spec.DistLoops = []string{"j"}
	case "sor":
		spec.DistDims = map[string]int{"b": 0}
		spec.DistLoops = []string{"j"}
	default:
		t.Fatalf("no dist directive for %q", name)
	}
	return spec
}

// refSums runs the program sequentially and fingerprints its arrays.
func refSums(t *testing.T, spec JobSpec) map[string]string {
	t.Helper()
	prog, err := lang.Parse(spec.Program)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := loopir.NewInstance(prog, spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	sums := map[string]string{}
	for name, arr := range inst.Arrays {
		sums[name] = arraySum(arr).SHA256
	}
	return sums
}

// startPool spins up n in-process slave daemons.
func startPool(t *testing.T, n int, opt netrun.ServerOptions) ([]string, []*netrun.Server) {
	t.Helper()
	addrs := make([]string, n)
	srvs := make([]*netrun.Server, n)
	for i := 0; i < n; i++ {
		srv, err := netrun.NewServer(opt)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = srv.Addr()
		srvs[i] = srv
		go srv.Serve()
		t.Cleanup(func() { srv.Close() })
	}
	return addrs, srvs
}

// newTestService builds a Service over an in-process pool with fast
// failure detection and checkpointing (preemption latency is bounded by
// the checkpoint cadence). A test that needs the daemons themselves starts
// the pool and passes its addresses in opt.
func newTestService(t *testing.T, slaves int, srvOpt netrun.ServerOptions, opt Options) *Service {
	t.Helper()
	if opt.Addrs == nil {
		opt.Addrs, _ = startPool(t, slaves, srvOpt)
	}
	if opt.Detect.MinLease == 0 {
		// No test here injects faults, so the detector exists only to be
		// wrong: a lease short enough to matter under the race detector's
		// slowdown would evict healthy slaves mid-job.
		lease, beat := 400*time.Millisecond, 100*time.Millisecond
		if raceDetector {
			lease, beat = 4*time.Second, 250*time.Millisecond
		}
		opt.Detect = fault.DetectorConfig{MinLease: lease, HeartbeatEvery: beat}
	}
	if opt.Ckpt.MinInterval == 0 {
		opt.Ckpt = fault.CkptPolicy{MinInterval: 150 * time.Millisecond}
	}
	if opt.Timeouts.Dial == 0 {
		opt.Timeouts = netrun.Timeouts{Dial: 10 * time.Second}
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// raceScale stretches wall-clock budgets when the race detector's 5-20x
// slowdown applies.
func raceScale(d time.Duration) time.Duration {
	if raceDetector {
		return d * 6
	}
	return d
}

// waitState polls until the job reaches one of the wanted states.
func waitState(t *testing.T, s *Service, id string, timeout time.Duration, want ...string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(raceScale(timeout))
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		if st.State == StateFailed {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, wanted one of %v", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func checkResultSums(t *testing.T, s *Service, id string, want map[string]string) {
	t.Helper()
	res, err := s.Result(id)
	if err != nil {
		t.Fatalf("result %s: %v", id, err)
	}
	if res.State != StateDone {
		t.Fatalf("job %s state %s (err %s)", id, res.State, res.Error)
	}
	if len(res.Arrays) == 0 {
		t.Fatalf("job %s has no array checksums", id)
	}
	for _, a := range res.Arrays {
		if wantSum, ok := want[a.Name]; ok && a.SHA256 != wantSum {
			t.Errorf("job %s array %s checksum %s, want %s (not bit-identical)", id, a.Name, a.SHA256, wantSum)
		}
	}
}

// TestSingleJob is the basic path: submit, run, fetch a checksum-verified
// result.
func TestSingleJob(t *testing.T) {
	s := newTestService(t, 2, netrun.ServerOptions{}, Options{})
	spec := testSpec(t, "mm", 64, 0, 2)
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, 30*time.Second, StateDone)
	checkResultSums(t, s, id, refSums(t, spec))

	// Result of an unknown job is 404-shaped; of an unfinished job, conflict.
	if _, err := s.Result("j-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown job result err = %v, want ErrNotFound", err)
	}
}

// TestAdmissionControl fills the queue and checks the overflow rejection
// and the oversized-job rejection.
func TestAdmissionControl(t *testing.T) {
	s := newTestService(t, 1, netrun.ServerOptions{Drag: 30}, Options{MaxQueue: 2})
	spec := testSpec(t, "mm", 128, 0, 1)

	if _, err := s.Submit(testSpec(t, "mm", 64, 0, 4)); err == nil {
		t.Error("job wanting 4 slaves admitted into a 1-daemon pool")
	}

	// One job occupies the daemon; once it holds the lease, two more fill
	// the queue and the fourth must be rejected.
	ids := make([]string, 3)
	var err2 error
	ids[0], err2 = s.Submit(spec)
	if err2 != nil {
		t.Fatal(err2)
	}
	waitState(t, s, ids[0], 15*time.Second, StateRunning)
	for i := 1; i < 3; i++ {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}
	if _, err := s.Submit(spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	z := s.Statsz()
	if z.Tenants["default"].Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", z.Tenants["default"].Rejected)
	}
	for _, id := range ids {
		waitState(t, s, id, 60*time.Second, StateDone)
	}
}

// TestConcurrentJobsShareNothing runs two jobs at once on a 4-daemon pool
// and checks they held disjoint leases (the pool was fully busy while both
// ran) and both finished bit-identical to the sequential reference.
func TestConcurrentJobsShareNothing(t *testing.T) {
	s := newTestService(t, 4, netrun.ServerOptions{Drag: 10}, Options{})
	spec := testSpec(t, "mm", 128, 0, 2)
	want := refSums(t, spec)
	idA, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Both must be running concurrently, and together they drain the pool.
	deadline := time.Now().Add(raceScale(15 * time.Second))
	for {
		z := s.Statsz()
		if z.Running == 2 {
			if z.PoolFree != 0 {
				t.Errorf("two 2-slave jobs running but pool_free = %d, want 0", z.PoolFree)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs never ran concurrently")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitState(t, s, idA, 60*time.Second, StateDone)
	waitState(t, s, idB, 60*time.Second, StateDone)
	checkResultSums(t, s, idA, want)
	checkResultSums(t, s, idB, want)
}

// TestPriorityPreemption submits a low-priority job that fills the pool,
// then a high-priority one: the scheduler must checkpoint-and-release the
// low job, run the high one, then resume the low job — whose final result
// must still be bit-identical to the sequential reference. The preemption
// count is the check that the low job was still running when the high one
// came; Drag 75 keeps it running ≈ 1 s past the submission.
func TestPriorityPreemption(t *testing.T) {
	s := newTestService(t, 4, netrun.ServerOptions{Drag: 75, Timeouts: netrun.Timeouts{Dial: 10 * time.Second}}, Options{})
	low := testSpec(t, "mm", 256, 0, 4)
	low.Tenant = "batch"
	low.Priority = PriorityLow
	high := testSpec(t, "mm", 64, 0, 4)
	high.Tenant = "urgent"
	high.Priority = PriorityHigh

	lowID, err := s.Submit(low)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, lowID, 15*time.Second, StateRunning)
	time.Sleep(300 * time.Millisecond) // let it make some progress

	highID, err := s.Submit(high)
	if err != nil {
		t.Fatal(err)
	}
	// The low job must yield at a checkpoint...
	waitState(t, s, lowID, 30*time.Second, StatePreempted, StateQueued)
	// ...the high job runs to completion on the freed lease...
	waitState(t, s, highID, 60*time.Second, StateDone)
	checkResultSums(t, s, highID, refSums(t, high))
	// ...and the low job resumes and finishes bit-identically.
	st := waitState(t, s, lowID, 120*time.Second, StateDone)
	if st.Preemptions < 1 || st.Resumes < 1 {
		t.Errorf("low job preemptions=%d resumes=%d, want >= 1 each", st.Preemptions, st.Resumes)
	}
	checkResultSums(t, s, lowID, refSums(t, low))

	z := s.Statsz()
	if z.Tenants["batch"].Preemptions < 1 {
		t.Errorf("tenant batch preemptions = %d, want >= 1", z.Tenants["batch"].Preemptions)
	}
}

// TestCancel covers both cancellation paths: a queued job leaves the
// waiting set immediately; a running job is preempted and discarded.
func TestCancel(t *testing.T) {
	s := newTestService(t, 1, netrun.ServerOptions{Drag: 25}, Options{})
	runningID, err := s.Submit(testSpec(t, "mm", 256, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	queuedID, err := s.Submit(testSpec(t, "mm", 256, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, runningID, 15*time.Second, StateRunning)

	if err := s.Cancel(queuedID); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Status(queuedID); st.State != StateCanceled {
		t.Errorf("queued job state after cancel = %s, want canceled", st.State)
	}
	if err := s.Cancel(runningID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, runningID, 30*time.Second, StateCanceled)
	if err := s.Cancel("j-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown err = %v, want ErrNotFound", err)
	}
}

// TestFairnessOrdering checks the weighted pick: with tenant A far ahead
// on served slave-seconds, a same-class tie goes to tenant B even though
// A's job was admitted first.
func TestFairnessOrdering(t *testing.T) {
	q := newQueue(8)
	served := map[string]float64{"a": 100, "b": 1}
	mk := func(seq int, tenant, prio string) *Job {
		return &Job{Seq: seq, Spec: JobSpec{Tenant: tenant, Priority: prio}, State: StateQueued}
	}
	ja, jb := mk(1, "a", PriorityNormal), mk(2, "b", PriorityNormal)
	q.add(ja, false)
	q.add(jb, false)
	if got := q.pick(func(t string) float64 { return served[t] }); got != jb {
		t.Errorf("pick chose tenant %s, want b (least served)", got.Spec.Tenant)
	}
	// Priority dominates fairness.
	jc := mk(3, "a", PriorityHigh)
	q.add(jc, false)
	if got := q.pick(func(t string) float64 { return served[t] }); got != jc {
		t.Errorf("pick chose %s/%s, want the high-priority job", got.Spec.Tenant, got.Spec.Priority)
	}
	// Within a tenant, admission order wins.
	q.remove(jc)
	jd := mk(4, "b", PriorityNormal)
	q.add(jd, false)
	if got := q.pick(func(t string) float64 { return served[t] }); got != jb {
		t.Errorf("pick chose seq %d, want the tenant's earliest job", got.Seq)
	}

	// Equal-weight tenants converge. This time the criterion is the
	// scheduler's own (stats.served: slave-seconds charged per finished
	// lease segment, over weight — what Service.schedule passes to pick):
	// tenant a starts 6 slave-seconds ahead, every job costs 2, so b is
	// served until it has caught up and then the two alternate and end
	// level.
	st := newStats(map[string]float64{"heavy": 2})
	st.charge("a", 2, 3*time.Second)
	fq := newQueue(8)
	for seq, tenant := range []string{"a", "b", "a", "b", "b", "b", "b"} {
		fq.add(mk(seq+1, tenant, PriorityNormal), false)
	}
	order := ""
	for fq.len() > 0 {
		j := fq.pick(st.served)
		fq.remove(j)
		st.charge(j.Spec.Tenant, 2, time.Second)
		order += j.Spec.Tenant
	}
	if order != "bbbabab" || st.served("a") != st.served("b") {
		t.Errorf("pick order %s with served a=%g b=%g, want bbbabab ending level", order, st.served("a"), st.served("b"))
	}
	st.charge("heavy", 2, time.Second)
	if got := st.served("heavy"); got != 1 {
		t.Errorf("weight-2 tenant's 2 slave-seconds normalize to %g, want 1", got)
	}
}

// TestGroupsAdmissionAndRun pins the service's answer to hierarchical
// groups: every job is fault-tolerant, and a grouped run cannot be, so the
// spec has no groups field and a submission carrying one is a 400 naming
// it. Nothing was queued, so the same job without the field then runs on
// the whole pool and finishes bit-identical to the sequential reference.
func TestGroupsAdmissionAndRun(t *testing.T) {
	s := newTestService(t, 2, netrun.ServerOptions{}, Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	spec := testSpec(t, "mm", 64, 0, 2)
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]interface{}
	if err := json.Unmarshal(b, &body); err != nil {
		t.Fatal(err)
	}
	body["groups"] = 2
	var bad struct {
		Error string `json:"error"`
	}
	if code := httpDo(t, "POST", ts.URL+"/api/v1/jobs", body, &bad); code != 400 || !strings.Contains(bad.Error, `"groups"`) {
		t.Fatalf(`submit with "groups" = %d (%q), want 400 naming the field`, code, bad.Error)
	}
	if n := len(s.List()); n != 0 {
		t.Fatalf("refused submission left %d jobs behind", n)
	}

	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, 30*time.Second, StateDone)
	checkResultSums(t, s, id, refSums(t, spec))
}
