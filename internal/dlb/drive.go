package dlb

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
)

// This file is the plumbing that lets an external transport — most
// importantly the TCP runtime in internal/netrun — drive the master and
// slave loops from processes that live in different address spaces:
// RunMasterOn and RunSlaveOn run one side of the same assembly Run and
// RunReal run whole, over an Endpoint the transport supplies (netrun's is
// the WallEndpoint with its connection router as the sender).

// Terminal slave outcomes a transport must distinguish from bugs: an
// injected crash (the process is scheduled to die) and an eviction (the
// master recovered past this slave; a zombie must not rejoin its epoch).
var (
	ErrInjectedCrash = errors.New("dlb: slave halted by injected crash")
	ErrEvicted       = errors.New("dlb: slave evicted by master")
)

// ErrNoSurvivors is returned by Run, RunReal and RunMasterOn when a
// recovery finds every slave dead (crashed, or falsely evicted by too
// short a lease) and no joiner to adopt the checkpoint.
var ErrNoSurvivors = errors.New("dlb: recovery impossible: no surviving slaves")

// Prepared is the instantiation both sides of a distributed run must agree
// on: the same plan, parameters, strip-mining grain and compile options
// yield the same phase schedule — and hence the same plan hash —
// everywhere.
type Prepared struct {
	Exec  *compile.Exec
	Grain int

	// tier and native are LoadNative's answer: the resolved tier ("" until
	// then) and, on the aot tier, the native kernels.
	tier   string
	native *aotBundle
}

// Prepare instantiates cfg.Plan for a real (wall-clock) environment. It
// runs no program code: the plan's shape is a function of the plan, costed
// at the VM's rate vmRate — strip blocks sized to grainFactor × RealQuantum
// from the modelled cost of one strip row (§4.4), and hooks placed at the
// hook cost wallHookCostFlops (§4.2) — so every process
// that prepares the same Config gets the same grain, hook level and tier.
// cfg.ForcedGrain overrides the grain: the master ships its grain to
// slaves, which do not know its RealQuantum. A Config no entry point would
// run (no plan, an unknown mode string, faults without DLB) is refused
// here, which is where both sides of a transport handshake find out.
func Prepare(cfg Config, slaves int) (*Prepared, error) {
	cfg = cfg.withDefaults()
	if _, err := cfg.validate(); err != nil {
		return nil, err
	}
	if slaves < 1 {
		return nil, fmt.Errorf("dlb: need at least one slave")
	}
	quantum := cfg.RealQuantum
	if quantum <= 0 {
		quantum = 10 * time.Millisecond
	}
	return instantiate(&cfg, slaves, quantum, 1e9/vmRate, wallHookCostFlops)
}

// RunMasterOn drives the master over an arbitrary endpoint. initial is the
// starting membership; total additionally counts joiner slots the transport
// may admit mid-run (ids initial..total-1). The run is always
// fault-tolerant, so cfg.DLB must be set (hooks are the heartbeat and
// checkpoint substrate). A nil cfg.Fault arms detection, checkpointing and
// elastic join without injecting anything; scheduled Join events are
// ignored here (the transport owns admission).
func RunMasterOn(ep Endpoint, cfg Config, cc cluster.Config, initial, total int, pre *Prepared) (res *Result, err error) {
	l, err := assemble(cfg, masterOnly, initial, total)
	if err != nil {
		return nil, err
	}
	if err := l.adopt(pre); err != nil {
		return nil, err
	}
	eng := l.engine(cc)
	start := ep.Now()
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(preemptStop); ok {
				// A cooperative stop: the policy committed the stop
				// checkpoint, published it on the Result, and released the
				// slaves before unwinding.
				eng.fold()
				l.res.Elapsed = ep.Now() - start
				res, err = l.res, ErrPreempted
				return
			}
			// Includes a *PeerFailure out of a poisoned mailbox: a slave
			// died of a real bug and the run fails naming it.
			res, err = nil, fmt.Errorf("dlb: master: %v", p)
		}
	}()
	eng.runOn(ep)
	return l.finish(eng, ep.Now()-start)
}

// RunSlaveOn drives slave id over an arbitrary endpoint; slaves is the
// initial membership size, so an id from slaves up is a joiner: it
// registers with the master immediately and waits for admission. cfg.Fault
// events targeting this id are injected through the endpoint exactly as in
// Run/RunReal. Returns nil on a completed run, ErrInjectedCrash or
// ErrEvicted for deliberate deaths, and lets genuine bugs (and the
// endpoint's poison) panic through to the caller.
func RunSlaveOn(ep Endpoint, cfg Config, id, slaves int, pre *Prepared) (err error) {
	if id < 0 {
		return fmt.Errorf("dlb: bad slave id %d of %d", id, slaves)
	}
	l, err := assemble(cfg, slaveOnly, slaves, 0)
	if err != nil {
		return err
	}
	if err := l.adopt(pre); err != nil {
		return err
	}
	defer func() {
		if p := recover(); p != nil {
			switch p.(type) {
			case crashExit:
				err = ErrInjectedCrash
			case evictExit:
				err = ErrEvicted
			default:
				panic(p)
			}
		}
	}()
	l.slave(id).runOn(newFaultEP(ep, id, l.inj, nil))
	return nil
}
