package main

// The benchmark's declared surface: workloads, end-to-end metrics with
// their regression bounds, and per-layer metrics. BENCHMARK.json at the
// repository root carries the same names, units and bounds (a test keeps
// the two equal); the extra columns here — clock, aggregation, exactness —
// are what the printed table and -compare need beyond that contract.

// runSeconds is the default measured-phase length and BENCHMARK.json's
// run_seconds.
const runSeconds = 20

// Clocks label where a number comes from: a wall-clock measurement on this
// host, the simulator's virtual time (model output), a value computed from
// sizes, or an event count.
const (
	clockWall     = "wall"
	clockVirtual  = "virtual"
	clockComputed = "computed"
	clockCount    = "count"
)

type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base median it may worsen by
	Clock  string
	// Mean aggregates the per-operation observations by mean (counts per
	// run); the default is the median.
	Mean bool
	// Exact marks values that repeat bit for bit for one seed (virtual
	// time, simulator message counts): -compare reports any difference as
	// a behaviour change.
	Exact bool
}

var endToEnd = []metricDecl{
	{Name: "run_p50_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: clockWall},
	{Name: "work_mflops", Unit: "MFLOP/s", Better: "higher", Bound: 0.25, Clock: clockWall},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Clock: clockWall},
}

var perLayer = []metricDecl{
	// The whole operation, beyond the median.
	{Name: "run_p95_s", Unit: "s", Better: "lower", Clock: clockWall},
	{Name: "vt_makespan_s", Unit: "s", Better: "lower", Clock: clockVirtual, Exact: true},
	{Name: "vt_efficiency", Unit: "ratio", Better: "higher", Clock: clockVirtual, Exact: true},

	// lang / depend / compile.
	{Name: "lang.parse_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "depend.analyze_ms", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "compile.compile_ms", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "compile.instantiate_ms", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "dlb.prepare_ms", Unit: "ms", Better: "lower", Clock: clockWall},

	// aot build pipeline.
	{Name: "aot.emit_ms", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "aot.build_cold_ms", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "aot.load_warm_ms", Unit: "ms", Better: "lower", Clock: clockWall},

	// Loop executors.
	{Name: "loopir.seq_s", Unit: "s", Better: "lower", Clock: clockWall},
	{Name: "loopir.interp_mflops", Unit: "MFLOP/s", Better: "higher", Clock: clockWall},
	{Name: "loopir.closure_mflops", Unit: "MFLOP/s", Better: "higher", Clock: clockWall},
	{Name: "loopir.kernel_mflops", Unit: "MFLOP/s", Better: "higher", Clock: clockWall},
	{Name: "aot.kernel_mflops", Unit: "MFLOP/s", Better: "higher", Clock: clockWall},
	{Name: "kernel.ideal_s", Unit: "s", Better: "lower", Clock: clockComputed},
	{Name: "kernel.bytes_per_sweep", Unit: "B", Better: "lower", Clock: clockComputed},

	// dlb engine, read from the measured operations' results.
	{Name: "dlb.elapsed_s", Unit: "s", Better: "lower", Clock: clockWall},
	{Name: "dlb.compute_share", Unit: "ratio", Better: "higher", Clock: clockWall},
	{Name: "dlb.scatter_gather_s", Unit: "s", Better: "lower", Clock: clockWall},
	{Name: "dlb.busy_share", Unit: "ratio", Better: "higher", Clock: clockWall},
	{Name: "dlb.busy_skew", Unit: "ratio", Better: "lower", Clock: clockWall},
	{Name: "dlb.harness_gap_s", Unit: "s", Better: "lower", Clock: clockWall},
	{Name: "dlb.overhead_s", Unit: "s", Better: "lower", Clock: clockComputed},
	{Name: "dlb.overhead_share", Unit: "ratio", Better: "lower", Clock: clockComputed},
	{Name: "dlb.rounds", Unit: "count", Better: "lower", Clock: clockCount, Mean: true},
	{Name: "dlb.status_reports", Unit: "count", Better: "lower", Clock: clockCount, Mean: true},
	{Name: "dlb.instr_bytes", Unit: "B", Better: "lower", Clock: clockCount, Mean: true},
	{Name: "dlb.scatter_bytes", Unit: "B", Better: "lower", Clock: clockCount, Mean: true},
	{Name: "dlb.overlap_rounds", Unit: "count", Better: "higher", Clock: clockCount, Mean: true},
	{Name: "dlb.overlap_fallback", Unit: "count", Better: "lower", Clock: clockCount, Mean: true},
	{Name: "dlb.kernel_units", Unit: "count", Better: "higher", Clock: clockCount, Mean: true},
	{Name: "dlb.aot_units", Unit: "count", Better: "higher", Clock: clockCount, Mean: true},
	{Name: "dlb.fallback_units", Unit: "count", Better: "lower", Clock: clockCount, Mean: true},
	{Name: "dlb.grain", Unit: "count", Better: "higher", Clock: clockCount, Mean: true},

	// core balancer.
	{Name: "core.moves", Unit: "count", Better: "lower", Clock: clockCount, Mean: true},
	{Name: "core.units_moved", Unit: "count", Better: "lower", Clock: clockCount, Mean: true},
	{Name: "core.imbalance", Unit: "ratio", Better: "lower", Clock: clockCount, Mean: true},
	{Name: "core.step_us_p8", Unit: "us", Better: "lower", Clock: clockWall},

	// wire codecs.
	{Name: "wire.ghost_frame_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "wire.work_encode_mbps", Unit: "MB/s", Better: "higher", Clock: clockWall},
	{Name: "wire.work_decode_mbps", Unit: "MB/s", Better: "higher", Clock: clockWall},
	{Name: "wire.gob_ctrl_roundtrip_us", Unit: "us", Better: "lower", Clock: clockWall},

	// netrun transport.
	{Name: "netrun.server_start_ms", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "netrun.session_gap_s", Unit: "s", Better: "lower", Clock: clockWall},
	{Name: "netrun.tcp_over_chan", Unit: "ratio", Better: "lower", Clock: clockWall},
	{Name: "netrun.close_ms", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "netrun.close_wedged", Unit: "ratio", Better: "lower", Clock: clockCount, Mean: true},

	// fault policy (always on under a transport).
	{Name: "fault.checkpoints_per_run", Unit: "count", Better: "lower", Clock: clockCount, Mean: true},
	{Name: "fault.recoveries", Unit: "count", Better: "lower", Clock: clockCount, Mean: true},

	// cluster / vtime simulator.
	{Name: "vtime.switch_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "cluster.msgs_per_run", Unit: "count", Better: "lower", Clock: clockCount, Mean: true, Exact: true},
	{Name: "cluster.bytes_per_run", Unit: "B", Better: "lower", Clock: clockCount, Mean: true, Exact: true},
	{Name: "sim.wall_per_msg_us", Unit: "us", Better: "lower", Clock: clockWall},
	{Name: "sim.vt_seq_s", Unit: "s", Better: "lower", Clock: clockVirtual, Exact: true},
	{Name: "sim.vt_static_makespan_s", Unit: "s", Better: "lower", Clock: clockVirtual, Exact: true},
	{Name: "sim.vt_dlb_gain", Unit: "ratio", Better: "higher", Clock: clockVirtual, Exact: true},
	{Name: "sim.vt_master_busy_s", Unit: "s", Better: "lower", Clock: clockVirtual, Exact: true},

	// svc front door, as its HTTP clients and JSON see it.
	{Name: "svc.submit_ms_p50", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "svc.submit_ms_p95", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "svc.submit_hit_ms_p50", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "svc.submit_miss_ms_p50", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "svc.wait_ms_p50", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "svc.ran_ms_p50", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "svc.elapsed_ms_p50", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "svc.lease_gap_ms_p50", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "svc.poll_ms_p50", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "svc.jobs_per_s", Unit: "1/s", Better: "higher", Clock: clockWall},
	{Name: "svc.pool_busy_share", Unit: "ratio", Better: "higher", Clock: clockWall},
	{Name: "svc.preemptions", Unit: "count", Better: "lower", Clock: clockCount},

	// Process memory around the measured phase.
	{Name: "mem.alloc_mb_per_op", Unit: "MB", Better: "lower", Clock: clockCount},
	{Name: "mem.gc_pause_ms_per_op", Unit: "ms", Better: "lower", Clock: clockWall},
	{Name: "mem.heap_sys_mb", Unit: "MB", Better: "lower", Clock: clockCount},

	// Cost of the harness's own span recording.
	{Name: "trace.overhead", Unit: "ratio", Better: "lower", Clock: clockWall},
}

func findDecl(decls []metricDecl, name string) *metricDecl {
	for i := range decls {
		if decls[i].Name == name {
			return &decls[i]
		}
	}
	return nil
}
