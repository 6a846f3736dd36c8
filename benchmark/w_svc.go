package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/lang"
	"repro/internal/netrun"
	"repro/internal/svc"
)

// svc_mix: two closed-loop HTTP clients submit short jobs to the service
// (svc.New behind Service.Handler on a loopback listener) over a pool of
// two in-process daemons. Jobs are drawn by seed from four kinds; every
// other job perturbs n by 1-7, so half the submissions miss the plan
// cache. Short jobs make per-job fixed cost the product: JSON, parse and
// compile on the master and again on every daemon session, Prepare's grain
// measurement, handshake, scatter, lease scheduling. jacobi is left out on
// purpose: a daemon pair reused across 2-slave jacobi sessions wedges (see
// README), while mm, lu and sor reuse daemons cleanly.
type svcMix struct {
	kinds []*jobKind
	// ideals collects kernel.ideal_s of every job run.
	mu     sync.Mutex
	ideals []float64
}

// jobKind is one of the four job shapes, with the references for its base
// size and each perturbation.
type jobKind struct {
	family  string
	n       int
	maxiter int // 0: the program has no such parameter
	slaves  int
	src     string
	// refs[dn] is the sequential result at n+dn, sums[dn] its checksums.
	refs []*reference
	sums [][]arraySum
}

const (
	svcClients  = 2
	svcPool     = 2
	svcPerturb  = 7 // a perturbed job adds 1..svcPerturb to n
	svcPollWait = 2 * time.Millisecond
)

func newSvcMix(tiny bool) workload {
	if tiny {
		return &svcMix{kinds: []*jobKind{
			{family: "mm", n: 24, slaves: 1},
			{family: "lu", n: 32, slaves: 2},
			{family: "mm", n: 32, slaves: 2},
			{family: "sor", n: 32, maxiter: 4, slaves: 1},
		}}
	}
	return &svcMix{kinds: []*jobKind{
		{family: "mm", n: 96, slaves: 1},
		{family: "lu", n: 160, slaves: 2},
		{family: "mm", n: 128, slaves: 2},
		{family: "sor", n: 128, maxiter: 12, slaves: 1},
	}}
}

func (k *jobKind) params(dn int) map[string]int {
	p := map[string]int{"n": k.n + dn}
	if k.maxiter > 0 {
		p["maxiter"] = k.maxiter
	}
	return p
}

func (k *jobKind) spec(dn int) svc.JobSpec {
	d := sources[k.family].dist
	return svc.JobSpec{
		Tenant:    "bench",
		Program:   k.src,
		Params:    k.params(dn),
		DistDims:  d.Dims,
		DistLoops: d.Loops,
		Slaves:    k.slaves,
	}
}

func (w *svcMix) prepare(e *env) error {
	for i, k := range w.kinds {
		k.src = sources[k.family].render(k.family, e.rng(int64(10+i)))
		prog, err := lang.Parse(k.src)
		if err != nil {
			return err
		}
		// Jobs are small enough for the interpreter at full size.
		if err := anchor(prog, k.params(0), execRun, ""); err != nil {
			return err
		}
		for dn := 0; dn <= svcPerturb; dn++ {
			ref, err := newReference(prog, k.params(dn), execRun, "")
			if err != nil {
				return err
			}
			k.refs = append(k.refs, ref)
			k.sums = append(k.sums, checksums(ref.arrays))
		}
	}
	return nil
}

func (w *svcMix) setup(e *env, parent handle) (_ world, err error) {
	sw := &svcWorld{w: w, watchdog: e.opt.watchdog}
	defer func() {
		if err != nil {
			sw.close() // whatever part of the world was started
		}
	}()
	var addrs []string
	for i := 0; i < svcPool; i++ {
		sp := parent.child("netrun.NewServer")
		srv, err := netrun.NewServer(netrun.ServerOptions{})
		sp.end()
		if err != nil {
			return nil, err
		}
		go srv.Serve()
		sw.pool = append(sw.pool, srv)
		addrs = append(addrs, srv.Addr())
	}
	sp := parent.child("svc.New")
	service, err := svc.New(svc.Options{Addrs: addrs})
	sp.end()
	if err != nil {
		return nil, err
	}
	sw.service = service

	sp = parent.child("http.Listen")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	sp.end()
	if err != nil {
		return nil, err
	}
	sw.http = &http.Server{Handler: service.Handler()}
	sw.served = make(chan struct{})
	go func() {
		defer close(sw.served)
		sw.http.Serve(ln) // returns on Close; the error is always ErrServerClosed
	}()
	sw.base = "http://" + ln.Addr().String()
	sw.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: svcClients}}

	// Readiness is the health endpoint answering, not a sleep.
	sp = parent.child("http.healthz")
	resp, err := sw.client.Get(sw.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	sp.end()
	if err != nil {
		return nil, err
	}

	for _, k := range w.kinds {
		sp = parent.child("svc.Warm")
		err = service.Warm(k.spec(0))
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	for c := 0; c < svcClients; c++ {
		sw.clients = append(sw.clients, &svcClient{rng: e.rng(int64(100 + c))})
	}
	return sw, nil
}

// target: the first kind stands for the mix in the per-layer probes.
func (w *svcMix) target() probeTarget {
	k := w.kinds[0]
	return probeTarget{
		name: k.family, src: k.src, dist: sources[k.family].dist,
		params: k.params(0), probeParams: k.params(0),
		slaves: k.slaves, ref: k.refs[0],
	}
}

// ideal is the median, over the jobs run, of the job's sequential time
// shared by the slaves it leases.
func (w *svcMix) ideal() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return median(w.ideals)
}

func (w *svcMix) probe(*env, world, obs) error { return nil }

// svcWorld is a running service with its pool, HTTP front door and clients.
type svcWorld struct {
	w        *svcMix
	pool     []*netrun.Server
	service  *svc.Service
	http     *http.Server
	served   chan struct{}
	base     string
	client   *http.Client
	clients  []*svcClient
	watchdog time.Duration

	mu  sync.Mutex
	ops int
	// submits are the submit latencies of every job so far: the tail needs
	// more samples than one slice of a traced run holds.
	submits []float64
}

// svcClient is one closed-loop client's position in its seeded job stream.
type svcClient struct {
	rng  *rand.Rand
	jobs int
}

// next draws the client's next job: a kind, and for every other job a
// perturbation of n.
func (c *svcClient) next(kinds int) (kind, dn int) {
	kind = c.rng.Intn(kinds)
	if c.jobs%2 == 1 {
		dn = 1 + c.rng.Intn(svcPerturb)
	}
	c.jobs++
	return kind, dn
}

func (sw *svcWorld) close() {
	if sw.http != nil {
		sw.http.Close()
		<-sw.served
	}
	if sw.client != nil {
		sw.client.CloseIdleConnections()
	}
	if sw.service != nil {
		sw.service.Close()
	}
	awaitClosed(closeAsync(nil, 0, sw.pool), obs{})
}

// statsz is the part of /statsz the benchmark reads.
type statsz struct {
	Tenants map[string]struct {
		Preemptions int64   `json:"preemptions"`
		SlaveSec    float64 `json:"slave_seconds"`
	} `json:"tenants"`
}

func (sw *svcWorld) statsz() (slaveSec float64, preemptions int64, err error) {
	resp, err := sw.client.Get(sw.base + "/statsz")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var z statsz
	if err := json.NewDecoder(resp.Body).Decode(&z); err != nil {
		return 0, 0, err
	}
	for _, t := range z.Tenants {
		slaveSec += t.SlaveSec
		preemptions += t.Preemptions
	}
	return slaveSec, preemptions, nil
}

func (sw *svcWorld) operate(until time.Time, maxOps int, tr *tracer) ([]opRecord, time.Duration, obs) {
	phase := obs{}
	sec0, _, err0 := sw.statsz()
	start := time.Now()
	perClient := make([][]opRecord, len(sw.clients))
	var wg sync.WaitGroup
	for i, c := range sw.clients {
		wg.Add(1)
		go func(i int, c *svcClient) {
			defer wg.Done()
			for {
				perClient[i] = append(perClient[i], sw.job(c, tr))
				if (maxOps > 0 && len(perClient[i]) >= maxOps) || !time.Now().Before(until) {
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	span := time.Since(start)
	sec1, preempt, err1 := sw.statsz()

	var recs []opRecord
	done := 0
	for _, rs := range perClient {
		recs = append(recs, rs...)
		for _, r := range rs {
			if r.err == nil {
				done++
				sw.submits = append(sw.submits, r.obs["svc.submit_ms_p50"]...)
			}
		}
	}
	phase.add("svc.jobs_per_s", float64(done)/span.Seconds())
	if v, _, ok := tail(sw.submits, 95); ok {
		phase.add("svc.submit_ms_p95", v)
	}
	if err0 == nil && err1 == nil {
		phase.add("svc.pool_busy_share", (sec1-sec0)/(svcPool*span.Seconds()))
		phase.add("svc.preemptions", float64(preempt))
	}
	return recs, span, phase
}

// job is one operation: POST the spec, poll the result, verify checksums.
func (sw *svcWorld) job(c *svcClient, tr *tracer) (rec opRecord) {
	ki, dn := c.next(len(sw.w.kinds))
	k := sw.w.kinds[ki]
	sw.mu.Lock()
	sw.ops++
	op := sw.ops
	sw.mu.Unlock()
	root := tr.begin(op, "op")
	defer root.end()
	ctx, cancel := context.WithTimeout(context.Background(), sw.watchdog)
	defer cancel()
	rec.obs = obs{}

	body, err := json.Marshal(k.spec(dn))
	if err != nil {
		return opRecord{err: err}
	}
	t0 := time.Now()
	sp := root.child("http.submit")
	var accepted struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	status, err := sw.call(ctx, http.MethodPost, "/api/v1/jobs", body, &accepted)
	sp.end()
	submitMS := float64(time.Since(t0).Microseconds()) / 1e3
	if err != nil || status != http.StatusAccepted {
		return opRecord{err: fmt.Errorf("submit %s n+%d: status %d %s %v", k.family, dn, status, accepted.Error, err)}
	}

	var polls []float64
	var res svc.JobResult
	sp = root.child("http.poll")
	for {
		p0 := time.Now()
		status, err = sw.call(ctx, http.MethodGet, "/api/v1/jobs/"+accepted.ID+"/result", nil, &res)
		polls = append(polls, float64(time.Since(p0).Microseconds())/1e3)
		if err != nil || status != http.StatusConflict {
			break
		}
		time.Sleep(svcPollWait)
	}
	sp.end()
	if err != nil || status != http.StatusOK {
		return opRecord{err: fmt.Errorf("result of %s: status %d: %v", accepted.ID, status, err)}
	}

	sp = root.child("verify")
	switch {
	case res.State != svc.StateDone:
		rec.err = fmt.Errorf("job %s ended %s: %s", accepted.ID, res.State, res.Error)
	case !sameSums(k.sums[dn], res.Arrays):
		rec.err = fmt.Errorf("job %s (%s n+%d): result checksums differ from the sequential reference", accepted.ID, k.family, dn)
	}
	sp.end()
	rec.seconds = time.Since(t0).Seconds()
	rec.flops = k.refs[dn].flops

	rec.obs.add("svc.submit_ms_p50", submitMS)
	if dn == 0 {
		rec.obs.add("svc.submit_hit_ms_p50", submitMS)
	} else {
		rec.obs.add("svc.submit_miss_ms_p50", submitMS)
	}
	rec.obs.add("svc.wait_ms_p50", float64(res.WaitedMS))
	rec.obs.add("svc.ran_ms_p50", float64(res.RanMS))
	rec.obs.add("svc.elapsed_ms_p50", float64(res.ElapsedMS))
	rec.obs.add("svc.lease_gap_ms_p50", float64(res.RanMS-res.ElapsedMS))
	rec.obs.add("svc.poll_ms_p50", median(polls))
	rec.obs.add("dlb.elapsed_s", float64(res.ElapsedMS)/1e3)
	rec.obs.add("netrun.session_gap_s", float64(res.RanMS-res.ElapsedMS)/1e3)
	observeCounters(rec.obs, res.Counters)
	observeFault(rec.obs, res.Counters)
	sw.w.mu.Lock()
	sw.w.ideals = append(sw.w.ideals, k.refs[dn].seq.Seconds()/float64(k.slaves))
	sw.w.mu.Unlock()
	return rec
}

// call makes one request and decodes a JSON reply into out.
func (sw *svcWorld) call(ctx context.Context, method, path string, body []byte, out interface{}) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, sw.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := sw.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}
