package main

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/dlb"
	"repro/internal/metrics"
)

// sim_sor_wave: the paper's Figure 8 shape in the virtual-time simulator —
// a strip-mined, pipelined SOR sweep on eight simulated workstations, one
// of them under an oscillating competing load (20 s period, 10 s on), with
// restricted adjacent-only moves. Its wall time is vtime/cluster/engine
// message handling (the loop kernel is about a quarter), which is what the
// tier-1 tests and every dlbbench experiment spend their time on; its
// virtual-time results pin scheduling behaviour exactly. The simulator
// runs one process at a time, so this is the only workload with P=8.
type simSOR struct {
	n, maxiter, slaves int
	src                string
	ref                *reference
	vtSeq              time.Duration
}

func newSimSOR(tiny bool) workload {
	if tiny {
		return &simSOR{n: 64, maxiter: 4, slaves: 4}
	}
	return &simSOR{n: 512, maxiter: 24, slaves: 8}
}

const simFlopCost = 5 * time.Microsecond

func (w *simSOR) params() map[string]int {
	return map[string]int{"n": w.n, "maxiter": w.maxiter}
}

func (w *simSOR) prepare(e *env) error {
	w.src = sources["sor"].render("sor", e.rng(1))
	c, err := compileSource(handle{}, w.src, sources["sor"].dist)
	if err != nil {
		return err
	}
	if err := anchor(c.prog, map[string]int{"n": w.n, "maxiter": 1}, execRun, ""); err != nil {
		return err
	}
	// dlb.SequentialTime gives both halves of the model's base: the virtual
	// sequential time (flops at the calibrated flop cost) and, from the
	// Instance.Run it performs, the reference arrays.
	t0 := time.Now()
	vtSeq, arrays, err := dlb.SequentialTime(c.plan, w.params(), simFlopCost)
	if err != nil {
		return err
	}
	w.vtSeq = vtSeq
	w.ref = &reference{arrays: arrays, flops: flopCount(c.prog.Body, w.params()), seq: time.Since(t0)}
	return nil
}

// cluster puts the square wave on a middle slave: it can shed work to both
// neighbours. The slave is fixed, not seeded, so that the virtual-time
// results are one number for every seed (the seed still picks the data).
func (w *simSOR) cluster() cluster.Config {
	load := make([]cluster.LoadProfile, w.slaves)
	for i := range load {
		load[i] = cluster.NoLoad{}
	}
	load[w.slaves/2-1] = cluster.SquareWave{Period: 20 * time.Second, OnDuration: 10 * time.Second, Tasks: 1}
	return cluster.Config{Slaves: w.slaves, Load: load}
}

func (w *simSOR) setup(e *env, parent handle) (world, error) {
	c, err := compileSource(parent, w.src, sources["sor"].dist)
	if err != nil {
		return nil, err
	}
	cfg := dlb.Config{Plan: c.plan, Params: w.params(), DLB: true, FlopCost: simFlopCost}
	return &simWorld{cfg: cfg, cc: w.cluster(), vtSeq: w.vtSeq, ref: w.ref, watchdog: e.opt.watchdog}, nil
}

func (w *simSOR) target() probeTarget {
	return probeTarget{
		name: "sor", src: w.src, dist: sources["sor"].dist,
		params: w.params(), probeParams: map[string]int{"n": w.n, "maxiter": 1},
		slaves: w.slaves, ref: w.ref,
	}
}

// ideal: the simulator executes every slave's kernel work in one process,
// one slave at a time, so the whole sequential computation is on the wall
// clock once however many slaves are simulated.
func (w *simSOR) ideal() float64 { return w.ref.seq.Seconds() }

// probe runs the same cluster with the initial block distribution kept, so
// the balancer's gain in the model has a base.
func (w *simSOR) probe(e *env, wd world, o obs) error {
	sw := wd.(*simWorld)
	cfg := sw.cfg
	cfg.DLB = false
	static, err := dlb.Run(cfg, sw.cc)
	if err != nil {
		return err
	}
	o.add("sim.vt_seq_s", w.vtSeq.Seconds())
	o.add("sim.vt_static_makespan_s", static.Elapsed.Seconds())
	if sw.makespan > 0 {
		o.add("sim.vt_dlb_gain", static.Elapsed.Seconds()/sw.makespan)
	}
	return nil
}

// simWorld runs one plan under dlb.Run on a simulated cluster.
type simWorld struct {
	cfg      dlb.Config
	cc       cluster.Config
	vtSeq    time.Duration
	ref      *reference
	watchdog time.Duration
	ops      int
	// makespan is the last run's virtual elapsed time, in seconds.
	makespan float64
}

func (sw *simWorld) operate(until time.Time, maxOps int, tr *tracer) ([]opRecord, time.Duration, obs) {
	recs, span := closedLoop(until, maxOps, sw.watchdog, sw.ops+1, func(n int) opRecord {
		root := tr.begin(n, "op")
		defer root.end()
		t0 := time.Now()
		sp := root.child("dlb.Run")
		res, err := dlb.Run(sw.cfg, sw.cc)
		sp.end()
		wall := time.Since(t0)
		if err != nil {
			return opRecord{err: err}
		}
		sp = root.child("verify")
		err = sw.ref.check(res.Final)
		sp.end()
		rec := opRecord{seconds: time.Since(t0).Seconds(), flops: sw.ref.flops, err: err, obs: obs{}}
		observeResult(rec.obs, res, 0)
		rec.obs.add("vt_makespan_s", res.Elapsed.Seconds())
		rec.obs.add("vt_efficiency", metrics.Efficiency(sw.vtSeq, res.Elapsed, res.Usage))
		rec.obs.add("sim.vt_master_busy_s", res.MasterUsage.BusyElapsed.Seconds())
		msgs, bytes := res.MasterUsage.MessagesSent, res.MasterUsage.BytesSent
		for _, u := range res.Usage {
			msgs += u.MessagesSent
			bytes += u.BytesSent
		}
		rec.obs.add("cluster.msgs_per_run", float64(msgs))
		rec.obs.add("cluster.bytes_per_run", float64(bytes))
		if msgs > 0 {
			rec.obs.add("sim.wall_per_msg_us", float64(wall.Microseconds())/float64(msgs))
		}
		return rec
	})
	sw.ops += len(recs)
	for _, r := range recs {
		if vs := r.obs["vt_makespan_s"]; len(vs) > 0 {
			sw.makespan = vs[0]
		}
	}
	return recs, span, nil
}

func (sw *simWorld) close() {}
