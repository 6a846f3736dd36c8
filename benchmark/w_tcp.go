package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/aot"
	"repro/internal/compile"
	"repro/internal/dlb"
	"repro/internal/lang"
	"repro/internal/netrun"
)

// tcp_jacobi_aot: a 512x512 Jacobi stencil, 1500 sweeps, on two in-process
// netrun.Servers over loopback TCP with native (AOT) kernels, no drag.
// Native kernels shrink compute to about half the run, so 1500 ghost
// exchanges, framing, the always-on fault policy and session
// set-up/tear-down carry the rest; the balancer has nothing useful to do.
// VM-tier and balancer-policy changes should not move it.
//
// Overlap is off. With the split-loop async exchange on, about one TCP run
// in a hundred gathers a wrong result (3 of 300 here; 0 of 300 with overlap
// off, 0 of 300 with overlap on over goroutine channels; see README, "wrong
// results with overlap over TCP"), and a benchmark workload must be one on
// which no operation fails.
//
// Each run gets a fresh server pair: a pair reused across 2-slave jacobi
// runs wedges within three or four runs (see README, "the netrun wedge").
// Starting the pair is timed as netrun.server_start_ms, outside the sample.
type tcpJacobi struct {
	n, maxiter, anchorIter int
	// oracle is the sequential executor the reference comes from: the
	// kernel-first path needs 15 s for 1500 sweeps, so the full size uses
	// the whole-body native kernel.
	oracle executor
	src    string
	ref    *reference
}

func newTCPJacobi(tiny bool) workload {
	if tiny {
		return &tcpJacobi{n: 64, maxiter: 20, anchorIter: 2, oracle: execRun}
	}
	return &tcpJacobi{n: 512, maxiter: 1500, anchorIter: 2, oracle: execAOT}
}

const tcpSlaves = 2

func (w *tcpJacobi) params() map[string]int {
	return map[string]int{"n": w.n, "maxiter": w.maxiter}
}

func (w *tcpJacobi) prepare(e *env) error {
	w.src = sources["jacobi"].render("jacobi", e.rng(1))
	prog, err := lang.Parse(w.src)
	if err != nil {
		return err
	}
	// The reference is anchored to the interpreter on the same grid for a
	// few sweeps.
	cache, err := e.freshDir("aot-oracle-")
	if err != nil {
		return err
	}
	if err := anchor(prog, map[string]int{"n": w.n, "maxiter": w.anchorIter}, w.oracle, cache); err != nil {
		return err
	}
	w.ref, err = newReference(prog, w.params(), w.oracle, cache)
	return err
}

func (w *tcpJacobi) setup(e *env, parent handle) (world, error) {
	// A distinct program name per repetition gives a distinct native
	// artifact, so every repetition pays the cold toolchain build.
	name := uniqueName("jacobi")
	c, err := compileSource(parent, sources["jacobi"].render(name, e.rng(1)), sources["jacobi"].dist)
	if err != nil {
		return nil, err
	}
	cfg := dlb.Config{
		Plan:        c.plan,
		Params:      w.params(),
		DLB:         true,
		Kernel:      dlb.KernelAOT,
		Overlap:     dlb.OverlapDisabled,
		RealQuantum: 2 * time.Millisecond,
	}
	sp := parent.child("dlb.Prepare")
	pre, err := dlb.Prepare(cfg, tcpSlaves)
	sp.end()
	if err != nil {
		return nil, err
	}
	// The same spec the slaves' sessions will ask for, so their builds are
	// warm from the first run on.
	spec := aot.Spec{Prog: c.plan.Prog, Params: cfg.Params}
	for _, r := range compile.KernelRegions(c.plan) {
		spec.Regions = append(spec.Regions, aot.Region{DistVar: r.Var, Body: r.Body})
	}
	sp = parent.child("aot.Build")
	built, err := aot.Build(spec)
	sp.end()
	if err != nil {
		return nil, err
	}
	if built.Info.Warm {
		return nil, fmt.Errorf("found a warm AOT artifact (%s); set-up must build cold", built.Info.Key[:16])
	}
	e.aotMode = built.Info.Mode
	return &tcpWorld{cfg: cfg, pre: pre, ref: w.ref, watchdog: e.opt.watchdog}, nil
}

func (w *tcpJacobi) target() probeTarget {
	return probeTarget{
		name: "jacobi", src: w.src, dist: sources["jacobi"].dist,
		params: w.params(), probeParams: map[string]int{"n": w.n, "maxiter": 2},
		slaves: tcpSlaves, ref: w.ref,
	}
}

// ideal: two undragged slaves share the native kernel's sequential time.
func (w *tcpJacobi) ideal() float64 { return w.ref.seq.Seconds() / tcpSlaves }

// probe times the same configuration over goroutine channels, so the
// transport's share of the run has a base.
func (w *tcpJacobi) probe(e *env, wd world, o obs) error {
	tw := wd.(*tcpWorld)
	var overChan []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		res, err := dlb.RunReal(tw.cfg, tcpSlaves)
		if err != nil {
			return err
		}
		if err := tw.ref.check(res.Final); err != nil {
			return err
		}
		overChan = append(overChan, time.Since(t0).Seconds())
	}
	if base := median(overChan); base > 0 && len(tw.seconds) > 0 {
		o.add("netrun.tcp_over_chan", median(tw.seconds)/base)
	}
	return nil
}

// tcpWorld runs one plan under netrun.RunMaster against fresh servers.
type tcpWorld struct {
	cfg      dlb.Config
	pre      *dlb.Prepared
	ref      *reference
	watchdog time.Duration
	ops      int
	// seconds are the successful operations' times, for netrun.tcp_over_chan.
	seconds []float64
	// closing are the server closes started during the current phase; an
	// operation the watchdog abandoned may still add to it.
	mu      sync.Mutex
	closing []closing
}

func (tw *tcpWorld) operate(until time.Time, maxOps int, tr *tracer) ([]opRecord, time.Duration, obs) {
	recs, span := closedLoop(until, maxOps, tw.watchdog, tw.ops+1, func(op int) opRecord {
		root := tr.begin(op, "op")
		defer root.end()
		rec := opRecord{obs: obs{}}

		t0 := time.Now()
		var srvs []*netrun.Server
		var addrs []string
		// The used pair is closed in the background: a close that wedges
		// must cost neither this sample nor the next one's start.
		defer func() {
			cs := closeAsync(tr, op, srvs)
			tw.mu.Lock()
			tw.closing = append(tw.closing, cs...)
			tw.mu.Unlock()
		}()
		for i := 0; i < tcpSlaves; i++ {
			sp := root.child("netrun.NewServer")
			srv, err := netrun.NewServer(netrun.ServerOptions{})
			sp.end()
			if err != nil {
				return opRecord{err: err}
			}
			go srv.Serve()
			srvs = append(srvs, srv)
			addrs = append(addrs, srv.Addr())
		}
		rec.obs.add("netrun.server_start_ms", ms(time.Since(t0)))

		t0 = time.Now()
		sp := root.child("netrun.RunMaster")
		res, err := netrun.RunMaster(tw.cfg, addrs, netrun.MasterOptions{Prepared: tw.pre})
		sp.end()
		wall := time.Since(t0)
		if err != nil {
			rec.err = err
			return rec
		}
		sp = root.child("verify")
		rec.err = tw.ref.check(res.Final)
		if rec.err != nil {
			rec.err = fmt.Errorf("%w (moves %d, units moved %d, rounds %d, overlap rounds %d, fallbacks %d, recoveries %d)", rec.err,
				res.Moves, res.UnitsMoved, res.Phases, res.Counters["overlap_rounds"], res.Counters["overlap_fallback"], res.Recoveries)
		}
		sp.end()
		rec.seconds = time.Since(t0).Seconds()
		rec.flops = tw.ref.flops
		observeResult(rec.obs, res, wall)
		observeFault(rec.obs, res.Counters)
		rec.obs.add("netrun.session_gap_s", (wall - res.Elapsed).Seconds())
		return rec
	})
	tw.ops += len(recs)
	for _, r := range recs {
		if r.err == nil {
			tw.seconds = append(tw.seconds, r.seconds)
		}
	}
	tw.mu.Lock()
	cs := tw.closing
	tw.closing = nil
	tw.mu.Unlock()
	phase := obs{}
	awaitClosed(cs, phase)
	return recs, span, phase
}

func (tw *tcpWorld) close() {}

// closeWait bounds how long a Server.Close may take before the server is
// counted as wedged and abandoned.
const closeWait = 2 * time.Second

// closing is one Server.Close in flight.
type closing struct {
	started time.Time
	done    chan time.Duration // receives how long Close took, if it returns
}

// closeAsync closes each server on its own goroutine.
func closeAsync(tr *tracer, op int, srvs []*netrun.Server) []closing {
	var out []closing
	for _, srv := range srvs {
		c := closing{started: time.Now(), done: make(chan time.Duration, 1)}
		go func(srv *netrun.Server) {
			sp := tr.begin(op, "netrun.Server.Close")
			srv.Close()
			sp.end()
			c.done <- time.Since(c.started)
		}(srv)
		out = append(out, c)
	}
	return out
}

// awaitClosed gives every close closeWait from when it started, then
// records how long the returned ones took and what share never returned.
func awaitClosed(cs []closing, o obs) {
	if len(cs) == 0 {
		return
	}
	wedged := 0
	for _, c := range cs {
		timer := time.NewTimer(time.Until(c.started.Add(closeWait)))
		select {
		case d := <-c.done:
			o.add("netrun.close_ms", ms(d))
		case <-timer.C:
			wedged++
		}
		timer.Stop()
	}
	o.add("netrun.close_wedged", float64(wedged)/float64(len(cs)))
}
