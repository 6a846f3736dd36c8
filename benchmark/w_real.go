package main

import (
	"time"

	"repro/internal/dlb"
	"repro/internal/lang"
)

// real_mm_drag: matrix product on two goroutine slaves (dlb.RunReal), one
// of them slowed 3x; the seed picks which. The loopir kernel does nearly
// all the work and core/dlb must move about a hundred units off the slow
// slave. Transport, codecs and start-up are negligible here, so wire,
// netrun and svc changes should not move it.
type realMM struct {
	n, anchorN int
	src        string
	drag       []float64
	ref        *reference
}

func newRealMM(tiny bool) workload {
	if tiny {
		return &realMM{n: 48, anchorN: 24}
	}
	return &realMM{n: 384, anchorN: 64}
}

const realSlaves = 2

func (w *realMM) params() map[string]int { return map[string]int{"n": w.n} }

func (w *realMM) prepare(e *env) error {
	w.src = sources["mm"].render("mm", e.rng(1))
	w.drag = []float64{1, 1}
	w.drag[e.rng(2).Intn(realSlaves)] = 3
	prog, err := lang.Parse(w.src)
	if err != nil {
		return err
	}
	if err := anchor(prog, map[string]int{"n": w.anchorN}, execRun, ""); err != nil {
		return err
	}
	w.ref, err = newReference(prog, w.params(), execRun, "")
	return err
}

func (w *realMM) setup(e *env, parent handle) (world, error) {
	c, err := compileSource(parent, w.src, sources["mm"].dist)
	if err != nil {
		return nil, err
	}
	return &realWorld{
		cfg: dlb.Config{
			Plan:        c.plan,
			Params:      w.params(),
			DLB:         true,
			RealQuantum: 2 * time.Millisecond,
			RealDrag:    w.drag,
		},
		ref:      w.ref,
		watchdog: e.opt.watchdog,
	}, nil
}

func (w *realMM) target() probeTarget {
	probeN := 96
	if w.n < probeN {
		probeN = w.n
	}
	return probeTarget{
		name: "mm", src: w.src, dist: sources["mm"].dist,
		params: w.params(), probeParams: map[string]int{"n": probeN},
		slaves: realSlaves, ref: w.ref,
	}
}

// ideal spreads the sequential time over the capacity the dragged pair
// really has: 1 + 1/3 of a slave.
func (w *realMM) ideal() float64 {
	capacity := 0.0
	for _, d := range w.drag {
		capacity += 1 / d
	}
	return w.ref.seq.Seconds() / capacity
}

func (w *realMM) probe(*env, world, obs) error { return nil }

// realWorld runs one plan under dlb.RunReal.
type realWorld struct {
	cfg      dlb.Config
	ref      *reference
	watchdog time.Duration
	ops      int
}

func (rw *realWorld) operate(until time.Time, maxOps int, tr *tracer) ([]opRecord, time.Duration, obs) {
	recs, span := closedLoop(until, maxOps, rw.watchdog, rw.ops+1, func(n int) opRecord {
		root := tr.begin(n, "op")
		defer root.end()
		t0 := time.Now()
		sp := root.child("dlb.RunReal")
		res, err := dlb.RunReal(rw.cfg, realSlaves)
		sp.end()
		wall := time.Since(t0)
		if err != nil {
			return opRecord{err: err}
		}
		sp = root.child("verify")
		err = rw.ref.check(res.Final)
		sp.end()
		rec := opRecord{seconds: time.Since(t0).Seconds(), flops: rw.ref.flops, err: err, obs: obs{}}
		observeResult(rec.obs, res, wall)
		return rec
	})
	rw.ops += len(recs)
	return recs, span, nil
}

func (rw *realWorld) close() {}
