// Package netrun is the distributed TCP runtime: it carries the existing
// master/slave protocol over length-prefixed frames (internal/dlb/wire:
// the binary codec for status, instructions and float-bearing payloads,
// gob for the rare control frames) on real sockets, so the master and each
// slave run as separate OS processes — the deployment shape of the paper's
// Nectar workstation network. The protocol code itself is untouched, and so is its wall-clock
// endpoint: netrun only supplies the sender under dlb.WallEndpoint — a
// router that moves envelopes over TCP connections into the peer's
// dlb.Mailbox, where RunReal's goroutines put them directly.
//
// Topology. Each slave daemon (cmd/dlbd) owns one listener. The master
// dials the initial slaves and handshakes (protocol version, node id, plan
// hash); it also listens, so late nodes can join mid-run and a slave that
// lost its master connection can re-enter through the same elastic-join
// path. Slave↔slave connections are dialed lazily from a roster of
// listener addresses the master distributes — work movement, boundary
// exchange and pipeline data travel directly between slaves, never through
// the master.
//
// Failure model. A lost connection is not an error channel of its own: the
// transport just stops delivering, the slave's heartbeats stop arriving,
// and the PR-1 lease detector evicts the node and rolls the computation
// back to the last consistent checkpoint — exactly what an injected crash
// does in-process. On the slave side a lost master connection aborts the
// run locally and the daemon redials the master with exponential backoff,
// rejoining as a fresh node (its old slot's state is gone; the master
// refuses id reuse by design).
package netrun

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/dlb"
	"repro/internal/dlb/wire"
	"repro/internal/fault"
	"repro/internal/lang"
)

// ProtocolVersion gates the handshake: master and slave daemons must agree
// exactly (the protocol has no compatibility negotiation). Version 2
// dropped the per-connection codec negotiation: every peer sends bulk
// payloads on the binary codec. Version 3 names the run on every
// slave↔slave connection (StartMsg.Run, PeerHelloMsg.Run). Version 4
// dropped the init cache: the binary init frame lost its marker byte.
// Version 5 sends status and instruction frames binary, and the checkpoint
// and adoption frames write their shared fault.Cut in one layout.
// Version 6 drops the interpreter tier's unit count from the status frame.
const ProtocolVersion = 6

// Handshake failure modes. Errors returned by dials and accepts wrap one
// of these sentinels; use errors.Is to classify.
var (
	ErrVersionMismatch  = errors.New("netrun: protocol version mismatch")
	ErrPlanHashMismatch = errors.New("netrun: plan hash mismatch")
	ErrDuplicateID      = errors.New("netrun: node id already connected")
	ErrNoFreeSlots      = errors.New("netrun: no free joiner slots")
	ErrBusy             = errors.New("netrun: daemon is busy with another run")
	ErrProtocol         = errors.New("netrun: protocol error")
)

// rejectErr maps a RejectMsg to its sentinel.
func rejectErr(r wire.RejectMsg) error {
	var base error
	switch r.Code {
	case wire.RejectVersion:
		base = ErrVersionMismatch
	case wire.RejectPlanHash:
		base = ErrPlanHashMismatch
	case wire.RejectDuplicate:
		base = ErrDuplicateID
	case wire.RejectFull:
		base = ErrNoFreeSlots
	case wire.RejectBusy:
		base = ErrBusy
	default:
		base = ErrProtocol
	}
	if r.Detail == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, r.Detail)
}

// Timeouts bounds the transport's blocking operations. Zero fields take
// defaults; the zero value is ready to use.
type Timeouts struct {
	// Dial is the total budget for dialing one address, spent across
	// exponential-backoff retries (default 15s).
	Dial time.Duration
	// Handshake bounds each handshake frame, read and write (default 10s).
	Handshake time.Duration
	// Write bounds each steady-state frame write; a peer that stalls past
	// it loses the connection (default 30s).
	Write time.Duration
	// Read bounds the master's per-connection read idle time. Slave
	// heartbeats arrive every few hundred milliseconds, so an idle
	// connection this long is dead even if TCP has not noticed
	// (default 60s). Slave-side reads have no deadline: master
	// instructions legitimately pause for whole phases, and a dead master
	// is caught by the heartbeat writes failing.
	Read time.Duration
}

func (t Timeouts) withDefaults() Timeouts {
	if t.Dial <= 0 {
		t.Dial = 15 * time.Second
	}
	if t.Handshake <= 0 {
		t.Handshake = 10 * time.Second
	}
	if t.Write <= 0 {
		t.Write = 30 * time.Second
	}
	if t.Read <= 0 {
		t.Read = 60 * time.Second
	}
	return t
}

// PlanHash fingerprints a compiled, instantiated plan. Master and slave
// compile independently — the master from its Config, the slave from the
// shipped RunSpec — and compare hashes during the handshake, so two
// version-skewed binaries whose compilers generate different programs (or
// different phase schedules) refuse to run together instead of diverging
// mid-computation.
func PlanHash(plan *compile.Plan, exec *compile.Exec, params map[string]int, grain int) string {
	h := sha256.New()
	io.WriteString(h, "dlb-plan-v1\n")
	io.WriteString(h, lang.Format(plan.Prog))
	io.WriteString(h, plan.Source) // the generated pseudo-source: compiled structure
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, params[k])
	}
	arrs := make([]string, 0, len(plan.DistArrays))
	for a := range plan.DistArrays {
		arrs = append(arrs, a)
	}
	sort.Strings(arrs)
	for _, a := range arrs {
		fmt.Fprintf(h, "dist %s:%d\n", a, plan.DistArrays[a])
	}
	fmt.Fprintf(h, "grain=%d units=%d phases=%d level=%d\n",
		grain, exec.Units, len(exec.Phases), exec.ActiveLevel)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// specFromConfig builds the wire RunSpec a slave daemon needs to
// reconstruct the run. grain is the master's strip-mining grain, sized
// from its RealQuantum, which a slave does not know; slaves instantiate
// with exactly it (ForcedGrain) so every process shares one phase
// schedule.
func specFromConfig(cfg dlb.Config, grain int, hbEvery time.Duration) wire.RunSpec {
	params := map[string]int{}
	for k, v := range cfg.Params {
		params[k] = v
	}
	dims := map[string]int{}
	for k, v := range cfg.Plan.Dist.Dims {
		dims[k] = v
	}
	return wire.RunSpec{
		Source:         lang.Format(cfg.Plan.Prog),
		Params:         params,
		DistDims:       dims,
		DistLoops:      append([]string(nil), cfg.Plan.Dist.Loops...),
		Grain:          grain,
		DLB:            cfg.DLB,
		Synchronous:    cfg.Synchronous,
		Kernel:         cfg.Kernel,
		CostModel:      cfg.CostModel,
		Overlap:        cfg.Overlap,
		HeartbeatEvery: hbEvery,
		FaultSpec:      fault.FormatSpec(cfg.Fault),
	}
}

// configFromSpec rebuilds a slave-side Config: compile the shipped source
// under the shipped directive — once per distinct content, through the
// daemon's compile cache — and pin the master's grain. cached reports that
// the plan came out of the cache.
func configFromSpec(plans *compile.Cache, spec wire.RunSpec) (cfg dlb.Config, cached bool, err error) {
	opts := compile.Options{Dist: depend.DistSpec{Dims: spec.DistDims, Loops: spec.DistLoops}}
	plan, cached, err := plans.Compile(spec.Source, opts)
	if err != nil {
		return dlb.Config{}, false, fmt.Errorf("netrun: shipped program: %w", err)
	}
	cfg = dlb.Config{
		Plan:        plan,
		Params:      spec.Params,
		DLB:         spec.DLB,
		Synchronous: spec.Synchronous,
		Kernel:      spec.Kernel,
		CostModel:   spec.CostModel,
		Overlap:     spec.Overlap,
		ForcedGrain: spec.Grain,
		Detect:      fault.DetectorConfig{HeartbeatEvery: spec.HeartbeatEvery},
	}
	if spec.FaultSpec != "" {
		fp, err := fault.ParseSpec(spec.FaultSpec)
		if err != nil {
			return dlb.Config{}, false, fmt.Errorf("netrun: shipped fault spec: %w", err)
		}
		cfg.Fault = fp
	}
	return cfg, cached, nil
}
