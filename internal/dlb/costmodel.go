package dlb

import (
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/loopir"
)

// balancerSetup bundles the balancer configuration and the movement- and
// checkpoint-cost priors that every endpoint must derive the same way from
// the cluster parameters: a unit slice of each distributed array over the
// link bandwidth plus fixed per-message overhead, and the cost of shipping
// the whole distributed plus replicated state once.
type balancerSetup struct {
	balCfg   core.Config
	fixed    time.Duration // per-message fixed movement cost
	perUnit  time.Duration // movement cost per work unit
	ckptCost time.Duration // estimated cost of taking one checkpoint
}

// newBalancerSetup derives the shared setup from the run configuration, the
// cluster parameters (whose Bandwidth is the endpoint's data-plane prior:
// the modelled network on the simulator, the measured in-memory plane for
// RunReal, the measured binary codec for the TCP transport), and the
// master's instantiated arrays.
func newBalancerSetup(cfg *Config, cc cluster.Config, exec *compile.Exec, inst *loopir.Instance, slaves int) balancerSetup {
	plan := exec.Plan
	balCfg := core.DefaultConfig(slaves, plan.Restricted)
	balCfg.MinImprovement = cfg.MinImprovement
	balCfg.DisableFilter = cfg.DisableFilter
	balCfg.DisableProfitability = cfg.DisableProfitability
	balCfg.Quantum = cc.Quantum
	unitBytes, totalBytes := 0, 0
	for arr, dim := range plan.DistArrays {
		a := inst.Arrays[arr]
		unitBytes += 8 * unitSize(a, dim)
		totalBytes += 8 * len(a.Data)
	}
	for _, arr := range plan.Replicated {
		totalBytes += 8 * len(inst.Arrays[arr].Data)
	}
	fixed := cc.LinkLatency + cc.SendOverhead
	return balancerSetup{
		balCfg:  balCfg,
		fixed:   fixed,
		perUnit: time.Duration(float64(unitBytes) / cc.Bandwidth * float64(time.Second)),
		ckptCost: time.Duration(float64(totalBytes)/cc.Bandwidth*float64(time.Second)) +
			time.Duration(slaves)*fixed,
	}
}

// newBalancer builds a balancer over the given ownership map with the
// configured slave count.
func (b balancerSetup) newBalancer(own *core.Ownership) *core.Balancer {
	return core.NewBalancer(b.balCfg, own, core.NewMoveCostModel(b.fixed, b.perUnit))
}

// newBalancerFor is newBalancer with the slot count overridden — recovery
// epochs may have grown the membership past the configured initial size.
func (b balancerSetup) newBalancerFor(own *core.Ownership, slots int) *core.Balancer {
	cfg := b.balCfg
	cfg.Slaves = slots
	return core.NewBalancer(cfg, own, core.NewMoveCostModel(b.fixed, b.perUnit))
}

// memCopyBandwidth measures the in-process data plane (channel transfers of
// shared slices, effectively one memory copy per movement) so RunReal seeds
// its move-cost prior from the same kind of measurement the TCP transport
// takes of its binary codec, instead of a hardcoded constant. Measured
// once per process and cached.
func memCopyBandwidth() float64 {
	memBWOnce.Do(func() {
		const n = 1 << 20 // 8 MB of float payload
		src := make([]float64, n)
		dst := make([]float64, n)
		for i := range src {
			src[i] = float64(i)
		}
		const rounds = 4
		start := time.Now()
		for i := 0; i < rounds; i++ {
			copy(dst, src)
		}
		elapsed := time.Since(start)
		if elapsed <= 0 {
			memBW = 1e9 // timer too coarse; fall back to the old constant
			return
		}
		memBW = float64(8*n) * rounds / elapsed.Seconds()
	})
	return memBW
}

var (
	memBWOnce sync.Once
	memBW     float64
)

// wallHookCostFlops is the hook cost every wall-clock process instantiates
// with: one hook visit, 80 ns, in VM flops (12 at vmRate). A visit is
// dominated by two monotonic clock reads (the busy mark and the contact
// check), which a probe timed at 70–120 ns on the host vmRate describes;
// the hook level is the same for every cost from 2 to 25 flops on every
// benchmark shape, so that spread does not move a plan. Pricing the visit
// at vmRate keeps both sides of the §4.2 rule — a hook costs under 1 % of
// the work it encloses — on the one rate. The simulator keeps compile's
// default, 200.
const wallHookCostFlops = 80e-9 * vmRate
