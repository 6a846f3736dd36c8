package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/lang"
	"repro/internal/loopir"
)

// options is one invocation's settings.
type options struct {
	seed    int64
	seconds float64 // length of the measured phase
	traced  bool
	tiny    bool // smoke-test sizes
	// maxOps stops the measured phase after that many operations (per
	// client on svc_mix) even if time remains; 0 means time-boxed only.
	maxOps int
	// minSetups is how many times set-up is repeated at least; setup_s is
	// the median.
	minSetups int
	// watchdog bounds every operation: one that does not return in time is
	// counted as failed instead of hanging the benchmark.
	watchdog time.Duration
	// outDir receives results.jsonl and trace files and holds the AOT caches.
	outDir string
}

func (o options) withDefaults() options {
	if o.seconds <= 0 {
		o.seconds = runSeconds
	}
	if o.minSetups <= 0 {
		o.minSetups = 5
	}
	if o.watchdog <= 0 {
		o.watchdog = 60 * time.Second
	}
	return o
}

// env is what a workload sees of the invocation.
type env struct {
	opt options
	// tr is nil unless this is a traced invocation.
	tr *tracer
	// aotMode is the mode ("plugin" or "exec") of the last native build.
	aotMode string
	// dirs are the scratch directories made so far.
	dirs []string
}

// rng returns the generator for one purpose (stream) of this seed, so that
// adding a draw to one purpose does not shift another's.
func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.opt.seed*1000 + stream))
}

// freshDir makes an empty scratch directory under the output directory; it
// lives until cleanup.
func (e *env) freshDir(prefix string) (string, error) {
	if err := os.MkdirAll(e.opt.outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(e.opt.outDir, prefix)
	if err != nil {
		return "", err
	}
	e.dirs = append(e.dirs, dir)
	return filepath.Abs(dir)
}

func (e *env) cleanup() {
	for _, dir := range e.dirs {
		os.RemoveAll(dir)
	}
}

// opRecord is one measured operation.
type opRecord struct {
	seconds float64
	flops   int64
	err     error
	// obs are the per-layer observations read from this operation.
	obs obs
}

// world is a set-up system ready to operate.
type world interface {
	// operate runs operations closed-loop until the time is up or maxOps
	// (per client, 0 = no cap) is reached, always at least one per client,
	// and returns one record per operation plus the wall span of the phase
	// and observations that belong to the phase as a whole.
	operate(until time.Time, maxOps int, tr *tracer) (recs []opRecord, span time.Duration, phase obs)
	// close tears the world down.
	close()
}

// workload is one of the benchmark's input sets.
type workload interface {
	// prepare derives the inputs from the seed and builds the verification
	// oracle. Its cost is the harness's and is not part of setup_s.
	prepare(e *env) error
	// setup pays everything the system pays once before its first
	// operation: source text to a world that can operate. It is called
	// several times; the repetitions must not share caches.
	setup(e *env, parent handle) (world, error)
	// target names the program and size the per-layer probes run on.
	target() probeTarget
	// ideal is kernel.ideal_s: the operation's flops at the rate of the
	// executor tier it uses, on the capacity actually available.
	ideal() float64
	// probe runs the workload's own per-layer probes (traced pass only).
	probe(e *env, w world, o obs) error
}

type workloadEntry struct {
	name string
	why  string
	make func(tiny bool) workload
}

var workloads = []workloadEntry{
	{"real_mm_drag", "compute-bound goroutine run with one slave slowed 3x: kernel tier and balancer moves decide it, transport and codecs do not", newRealMM},
	{"tcp_jacobi_aot", "native kernels over loopback TCP on a balanced pair: ghost exchange, framing, checkpoints and session start/stop carry half the run", newTCPJacobi},
	{"sim_sor_wave", "paper Fig. 8 shape in the simulator: pipelined restricted moves under an oscillating load; wall time is vtime/cluster message handling", newSimSOR},
	{"svc_mix", "many short jobs through the HTTP service, half missing the plan cache: per-job fixed cost (parse, compile, handshake, scatter, lease) is the product", newSvcMix},
}

func findWorkload(name string) *workloadEntry {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// compiled is a program taken from source text to a distribution plan.
type compiled struct {
	prog *loopir.Program
	plan *compile.Plan
}

// compileSource runs the front half of the pipeline: lang.Parse then
// compile.Compile, one span each.
func compileSource(parent handle, src string, dist depend.DistSpec) (*compiled, error) {
	sp := parent.child("lang.Parse")
	prog, err := lang.Parse(src)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = parent.child("compile.Compile")
	plan, err := compile.Compile(prog, compile.Options{Dist: dist})
	sp.end()
	if err != nil {
		return nil, err
	}
	return &compiled{prog: prog, plan: plan}, nil
}

// guarded runs op under the watchdog. An operation that panics or does not
// return in time is a failed operation; a timed-out one is abandoned.
func guarded(limit time.Duration, op func() opRecord) opRecord {
	done := make(chan opRecord, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- opRecord{err: fmt.Errorf("operation panicked: %v", p)}
			}
		}()
		done <- op()
	}()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case r := <-done:
		return r
	case <-timer.C:
		return opRecord{err: fmt.Errorf("watchdog: operation still running after %s", limit)}
	}
}

// closedLoop is one client: the next operation starts when the previous
// one has returned. Operations are numbered from first. An operation the
// watchdog gave up on may still be running when the next one starts, so op
// must not write state it shares with the loop without a lock.
func closedLoop(until time.Time, maxOps int, watchdog time.Duration, first int, op func(n int) opRecord) ([]opRecord, time.Duration) {
	start := time.Now()
	var recs []opRecord
	for {
		n := first + len(recs)
		recs = append(recs, guarded(watchdog, func() opRecord { return op(n) }))
		if (maxOps > 0 && len(recs) >= maxOps) || !time.Now().Before(until) {
			return recs, time.Since(start)
		}
	}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one workload run.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Seconds   float64                `json:"seconds"`
	Host      hostInfo               `json:"host"`
	Samples   int                    `json:"samples"`
	Setups    int                    `json:"setups"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Errors    []string               `json:"errors,omitempty"`

	notes map[string]string // printed beside a metric
	spans []span
}

// hostInfo is where and with what the numbers were taken.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	AOTMode    string `json:"aot_mode"`
}

// runWorkload takes one workload from source text to verified results and
// measures it: repeated set-up, one warm-up operation, the measured phase
// (an untraced pass, then in a traced invocation a traced pass of the same
// length and the per-layer probes).
func runWorkload(entry *workloadEntry, opt options) (*report, error) {
	opt = opt.withDefaults()
	e := &env{opt: opt}
	defer e.cleanup()
	began := time.Now()
	progress := func(stage string) {
		fmt.Fprintf(os.Stderr, "[%6.1fs] %s: %s\n", time.Since(began).Seconds(), entry.name, stage)
	}
	if opt.traced {
		e.tr = newTracer()
	}
	w := entry.make(opt.tiny)
	if err := w.prepare(e); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", entry.name, err)
	}

	progress("inputs generated, oracle computed")

	// Set-up, repeated: cheap set-ups repeat until a second has been spent
	// on them so that the median is of more than a handful of milliseconds.
	var setups []float64
	var wd world
	var spent time.Duration
	for rep := 0; rep < opt.minSetups || (spent < time.Second && rep < 5*opt.minSetups); rep++ {
		if wd != nil {
			wd.close()
		}
		cache, err := e.freshDir("aot-")
		if err != nil {
			return nil, err
		}
		os.Setenv("DLB_AOT_CACHE", cache)
		root := e.tr.begin(0, "setup")
		t0 := time.Now()
		nw, err := w.setup(e, root)
		d := time.Since(t0)
		root.end()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", entry.name, rep, err)
		}
		wd = nw
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer wd.close()
	progress(fmt.Sprintf("%d set-ups done", len(setups)))

	// One warm-up operation, in neither setup_s nor the samples. It must
	// succeed: a system that cannot complete one operation has nothing to
	// measure.
	warm, _, _ := wd.operate(time.Now(), 1, nil)
	for _, r := range warm {
		if r.err != nil {
			return nil, fmt.Errorf("%s: warm-up operation: %w", entry.name, r.err)
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// The traced invocation alternates untraced and traced slices, so that
	// drift over the phase (a warming heap, a neighbour on the host) falls
	// on both sides of trace.overhead alike.
	phase := time.Duration(opt.seconds * float64(time.Second))
	slices := []*tracer{nil}
	if opt.traced {
		slices = []*tracer{nil, e.tr, nil, e.tr}
	}
	var base, traced []opRecord
	var baseSpan time.Duration
	var phases []obs
	for _, tr := range slices {
		recs, span, ph := wd.operate(time.Now().Add(phase/time.Duration(len(slices))), opt.maxOps, tr)
		if tr == nil {
			base = append(base, recs...)
			baseSpan += span
		} else {
			traced = append(traced, recs...)
		}
		phases = append(phases, ph)
	}
	all := append(append([]opRecord(nil), base...), traced...)
	runtime.ReadMemStats(&m1)
	progress(fmt.Sprintf("measured phase done, %d operations", len(all)))

	rep := &report{
		Workload: entry.name, Seed: opt.seed, Traced: opt.traced, Seconds: opt.seconds,
		Samples: len(base), Setups: len(setups),
		Attempted: len(all), Metrics: map[string]metricValue{}, notes: map[string]string{},
	}
	var flops int64
	for _, r := range all {
		if r.err != nil {
			rep.Failed++
			if len(rep.Errors) < 5 {
				rep.Errors = append(rep.Errors, r.err.Error())
			}
		}
	}
	rep.Correct = rep.Failed == 0
	var times []float64
	for _, r := range base {
		if r.err == nil {
			times = append(times, r.seconds)
			flops += r.flops
		}
	}

	if !opt.traced {
		p50 := median(times)
		rep.set(endToEnd, "run_p50_s", p50)
		rep.notes["run_p50_s"] = fmt.Sprintf("%d samples", len(times))
		rep.set(endToEnd, "work_mflops", float64(flops)/1e6/baseSpan.Seconds())
		rep.set(endToEnd, "setup_s", median(setups))
		rep.notes["setup_s"] = fmt.Sprintf("median of %d set-ups", len(setups))
		rep.Host = host(e)
		return rep, nil
	}

	// Traced invocation: per-layer numbers.
	o := obs{}
	for _, r := range all {
		for name, vs := range r.obs {
			o[name] = append(o[name], vs...)
		}
	}
	for _, ph := range phases {
		for name, vs := range ph {
			o[name] = append(o[name], vs...)
		}
	}
	var tracedTimes []float64
	for _, r := range traced {
		if r.err == nil {
			tracedTimes = append(tracedTimes, r.seconds)
		}
	}
	// The tail is taken over both kinds of slice: it needs the samples.
	allTimes := append(append([]float64(nil), times...), tracedTimes...)
	if v, beyond, ok := tail(allTimes, 95); ok {
		o.add("run_p95_s", v)
		rep.notes["run_p95_s"] = fmt.Sprintf("%d samples, %d beyond", len(allTimes), beyond)
	} else {
		rep.notes["run_p95_s"] = fmt.Sprintf("not reported: %d samples, %d beyond p95 (need %d)", len(allTimes), beyond, minBeyond)
	}
	p50 := median(times)
	if p50 > 0 && len(tracedTimes) > 0 {
		o.add("trace.overhead", median(tracedTimes)/p50)
		rep.notes["trace.overhead"] = fmt.Sprintf("traced %d ops / untraced %d ops, base %.4g s", len(tracedTimes), len(times), p50)
	}
	ops := float64(len(all))
	o.add("mem.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/ops)
	o.add("mem.gc_pause_ms_per_op", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/ops)
	o.add("mem.heap_sys_mb", float64(m1.HeapSys)/1e6)

	ideal := w.ideal()
	o.add("kernel.ideal_s", ideal)
	if p50 > 0 {
		o.add("dlb.overhead_s", p50-ideal)
		o.add("dlb.overhead_share", (p50-ideal)/p50)
		rep.notes["dlb.overhead_s"] = fmt.Sprintf("run p50 %.4g s - kernel.ideal_s", p50)
	}

	if err := genericProbes(e, w.target(), o, rep.notes); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", entry.name, err)
	}
	if err := w.probe(e, wd, o); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", entry.name, err)
	}

	for _, d := range perLayer {
		vs := o[d.Name]
		delete(o, d.Name)
		switch {
		case len(vs) == 0:
			rep.set(perLayer, d.Name, 0)
			if rep.notes[d.Name] == "" {
				rep.notes[d.Name] = "does not apply to this workload"
			}
		case d.Mean:
			rep.set(perLayer, d.Name, mean(vs))
		default:
			rep.set(perLayer, d.Name, median(vs))
		}
	}
	for name := range o {
		return nil, fmt.Errorf("%s: observation %q is not a declared per-layer metric", entry.name, name)
	}
	rep.spans = e.tr.finished()
	progress("probes done")
	rep.Host = host(e)
	return rep, nil
}

func (r *report) set(decls []metricDecl, name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: findDecl(decls, name).Unit}
}
