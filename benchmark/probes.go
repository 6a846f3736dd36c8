package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/aot"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/depend"
	"repro/internal/dlb"
	"repro/internal/dlb/wire"
	"repro/internal/lang"
	"repro/internal/loopir"
	"repro/internal/vtime"
)

// Per-layer probes: the harness times calls into each layer's public
// functions, at the workload's program where the layer's cost depends on
// it. They run in the traced invocation only, after the measured phase.

// probeTarget is the program and size a workload's probes run on.
type probeTarget struct {
	// name is the program's name in src.
	name string
	src  string
	dist depend.DistSpec
	// params is the workload's size; probeParams a reduced instance of the
	// same program that the interpreter finishes in well under a second,
	// used for the four executor-rate probes.
	params, probeParams map[string]int
	slaves              int
	ref                 *reference
}

// timed runs fn at least three times and for at least 200 ms (at most 50
// times) and returns the median duration of one call.
func timed(fn func()) time.Duration {
	var ds []float64
	start := time.Now()
	for len(ds) < 3 || (time.Since(start) < 200*time.Millisecond && len(ds) < 50) {
		t0 := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func genericProbes(e *env, t probeTarget, o obs, notes map[string]string) error {
	root := e.tr.begin(0, "probes")
	defer root.end()

	o.add("loopir.seq_s", t.ref.seq.Seconds())
	bytesTouched := 0
	for _, a := range t.ref.arrays {
		bytesTouched += 8 * len(a.Data)
	}
	o.add("kernel.bytes_per_sweep", float64(bytesTouched))
	notes["kernel.bytes_per_sweep"] = "all arrays of the program, 8 B per element"

	if err := probeFrontEnd(root, t, o); err != nil {
		return err
	}
	if err := probeExecutors(e, root, t, o, notes); err != nil {
		return err
	}
	probeBalancer(root, o)
	if err := probeWire(root, o); err != nil {
		return err
	}
	return probeVtime(root, o)
}

// probeFrontEnd times source text to a prepared plan, call by call.
func probeFrontEnd(root handle, t probeTarget, o obs) error {
	var prog *loopir.Program
	var plan *compile.Plan
	steps := []struct {
		span, metric string
		unit         func(time.Duration) float64
		call         func() error
	}{
		{"lang.Parse", "lang.parse_us", us, func() (err error) {
			prog, err = lang.Parse(t.src)
			return err
		}},
		{"depend.Analyze", "depend.analyze_ms", ms, func() error {
			_, err := depend.Analyze(prog)
			return err
		}},
		{"compile.Compile", "compile.compile_ms", ms, func() (err error) {
			plan, err = compile.Compile(prog, compile.Options{Dist: t.dist})
			return err
		}},
		{"compile.Plan.Instantiate", "compile.instantiate_ms", ms, func() error {
			_, err := plan.Instantiate(t.params, 1, compile.Options{})
			return err
		}},
		{"dlb.Prepare", "dlb.prepare_ms", ms, func() error {
			cfg := dlb.Config{Plan: plan, Params: t.params, DLB: true, RealQuantum: 2 * time.Millisecond}
			_, err := dlb.Prepare(cfg, t.slaves)
			return err
		}},
	}
	for i := 0; i < 3; i++ {
		for _, st := range steps {
			sp := root.child(st.span)
			t0 := time.Now()
			err := st.call()
			o.add(st.metric, st.unit(time.Since(t0)))
			sp.end()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// probeExecutors rates the four loop executors on the reduced instance, as
// internal/exp/kernel.go does, and times the AOT build pipeline cold and
// warm on the way.
func probeExecutors(e *env, root handle, t probeTarget, o obs, notes map[string]string) error {
	// A name of its own keeps the probe's native artifact apart from the
	// oracle's and the workload's, so that its cold build is cold.
	prog, err := lang.Parse(rename(t.src, t.name, uniqueName("probe_"+t.name)))
	if err != nil {
		return err
	}
	flops := float64(flopCount(prog.Body, t.probeParams))
	rate := func(metric, span string, fn func()) {
		sp := root.child(span)
		d := timed(fn)
		sp.end()
		o.add(metric, flops/1e6/d.Seconds())
		notes[metric] = fmt.Sprintf("at %v", t.probeParams)
	}
	fresh := func() (*loopir.Instance, error) { return loopir.NewInstance(prog, t.probeParams) }

	in, err := fresh()
	if err != nil {
		return err
	}
	var ierr error
	rate("loopir.interp_mflops", "loopir.Instance.Interpret", func() {
		if err := in.Interpret(); err != nil {
			ierr = err
		}
	})
	if ierr != nil {
		return ierr
	}

	if in, err = fresh(); err != nil {
		return err
	}
	code, err := in.Lower()
	if err != nil {
		return err
	}
	rate("loopir.closure_mflops", "loopir.Code.Run", code.Run)

	if in, err = fresh(); err != nil {
		return err
	}
	k, err := in.CompileKernel(in.Prog.Body)
	if err != nil {
		return err
	}
	rate("loopir.kernel_mflops", "loopir.Kernel.Run", func() { k.Run(nil) })

	// The AOT pipeline: cold into a fresh cache, then the same artifact
	// again with the in-process memo dropped (the on-disk warm path).
	cache, err := e.freshDir("aot-probe-")
	if err != nil {
		return err
	}
	spec := aot.Spec{Prog: prog, Params: t.probeParams, WholeBody: true, CacheDir: cache}
	sp := root.child("aot.Build cold")
	cold, err := aot.Build(spec)
	sp.end()
	if err != nil {
		return err
	}
	if cold.Info.Warm {
		return fmt.Errorf("aot probe found a warm artifact (%s); it must build cold", cold.Info.Key[:16])
	}
	e.aotMode = cold.Info.Mode
	o.add("aot.emit_ms", ms(cold.Info.EmitDur))
	o.add("aot.build_cold_ms", ms(cold.Info.BuildDur))
	aot.ClearMemory()
	sp = root.child("aot.Build warm")
	t0 := time.Now()
	warm, err := aot.Build(spec)
	o.add("aot.load_warm_ms", ms(time.Since(t0)))
	sp.end()
	if err != nil {
		return err
	}
	if in, err = fresh(); err != nil {
		return err
	}
	bk, err := warm.Kernels[0].Bind(in.Arrays)
	if err != nil {
		return err
	}
	rate("aot.kernel_mflops", "aot.BoundKernel.Run", func() { bk.Run(0, 0, nil) })
	return nil
}

// probeBalancer times core.Balancer.Step on a synthetic eight-slave status
// vector with restricted (adjacent-only) moves; the slow slave rotates so
// every step has a redistribution to compute.
func probeBalancer(root handle, o obs) {
	const slaves, units, steps = 8, 512, 2000
	own := core.NewBlockOwnership(units, slaves)
	bal := core.NewBalancer(core.DefaultConfig(slaves, true), own,
		core.NewMoveCostModel(time.Millisecond, 10*time.Microsecond))
	statuses := make([]core.Status, slaves)
	sp := root.child("core.Balancer.Step")
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		for s := range statuses {
			statuses[s].Rate = 100
		}
		statuses[(i/8)%slaves].Rate = 40
		bal.Step(statuses, units/slaves)
	}
	o.add("core.step_us_p8", us(time.Since(t0))/steps)
	sp.end()
}

// probeWire times the codecs over an in-memory connection, as
// internal/exp/plane.go does: a 512-float ghost slice and a 32-unit work
// movement on the binary codec, and a status/instruction pair on gob.
func probeWire(root handle, o obs) error {
	sp := root.child("wire.Conn")
	defer sp.end()
	var buf bytes.Buffer
	send, recv := wire.NewConn(&buf), wire.NewConn(&buf)
	send.SetBinary(true)
	var failed error
	roundTrip := func(envs ...wire.Envelope) func() {
		return func() {
			for _, env := range envs {
				if err := send.Send(env); err != nil {
					failed = err
				}
				if _, err := recv.Recv(); err != nil {
					failed = err
				}
			}
		}
	}

	ghost := wire.Envelope{Tag: "ghost", From: 1, Payload: dlb.SliceMsg{Unit: 7, RowLo: -1, RowHi: -1, Vals: make([]float64, 512)}}
	o.add("wire.ghost_frame_us", us(timed(roundTrip(ghost))))

	work := dlb.WorkMsg{Data: map[string][][]float64{}, Ghosts: map[string]map[int][]float64{}}
	const units, elems = 32, 384
	for _, arr := range []string{"b", "c"} {
		for u := 0; u < units; u++ {
			work.Data[arr] = append(work.Data[arr], make([]float64, elems))
		}
		work.Ghosts[arr] = map[int][]float64{units: make([]float64, elems)}
	}
	for u := 0; u < units; u++ {
		work.Units = append(work.Units, u)
	}
	workEnv := wire.Envelope{Tag: "work", From: 1, Payload: work}
	// Encode and decode apart: frames are written once and decoded from
	// copies of the bytes.
	buf.Reset()
	if err := send.Send(workEnv); err != nil {
		return err
	}
	frame := append([]byte(nil), buf.Bytes()...)
	mb := float64(len(frame)) / 1e6
	enc := timed(func() {
		buf.Reset()
		if err := send.Send(workEnv); err != nil {
			failed = err
		}
	})
	o.add("wire.work_encode_mbps", mb/enc.Seconds())
	dec := timed(func() {
		buf.Reset()
		buf.Write(frame)
		if _, err := recv.Recv(); err != nil {
			failed = err
		}
	})
	o.add("wire.work_decode_mbps", mb/dec.Seconds())

	// Control traffic stays on gob whatever the data plane negotiated.
	buf.Reset()
	send, recv = wire.NewConn(&buf), wire.NewConn(&buf)
	status := wire.Envelope{Tag: "status", From: 1, Payload: dlb.StatusMsg{Phase: 3, HookIndex: 12, Units: 96, Busy: 40 * time.Millisecond}}
	instr := wire.Envelope{Tag: "instr", From: -1, Payload: dlb.InstrMsg{Phase: 3, HookIndex: 12, SkipHooks: 2,
		Moves: []core.Move{{From: 0, To: 1, Units: []int{10, 11, 12, 13}}}}}
	o.add("wire.gob_ctrl_roundtrip_us", us(timed(roundTrip(status, instr))))
	return failed
}

// probeVtime times the simulator's process switch: two processes ping-pong
// a message over mailboxes, two switches per round.
func probeVtime(root handle, o obs) error {
	const rounds = 20000
	sp := root.child("vtime.Kernel.Run")
	defer sp.end()
	k := vtime.NewKernel()
	ping, pong := k.NewMailbox("ping"), k.NewMailbox("pong")
	k.Spawn("a", func(p *vtime.Proc) {
		for i := 0; i < rounds; i++ {
			p.Send(ping, i, time.Microsecond)
			p.Recv(pong)
		}
	})
	k.Spawn("b", func(p *vtime.Proc) {
		for i := 0; i < rounds; i++ {
			p.Recv(ping)
			p.Send(pong, i, time.Microsecond)
		}
	})
	t0 := time.Now()
	if err := k.Run(); err != nil {
		return err
	}
	o.add("vtime.switch_us", us(time.Since(t0))/(2*rounds))
	return nil
}
