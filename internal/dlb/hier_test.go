package dlb

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
)

// TestGroupsHierCorrect runs the grouped runtime for real — leaders
// relaying, diffusive exchanges armed — and demands the same bit-exact
// agreement with the sequential reference the flat engine is held to.
func TestGroupsHierCorrect(t *testing.T) {
	progs := []struct {
		name   string
		params map[string]int
	}{
		{"mm", map[string]int{"n": 24}},
		{"sor", map[string]int{"n": 20, "maxiter": 4}},
		{"lu", map[string]int{"n": 20}},
		{"jacobi", map[string]int{"n": 16, "maxiter": 3}},
	}
	for _, p := range progs {
		plan := planFor(t, p.name)
		for _, sync := range []bool{false, true} {
			mode := "pipelined"
			if sync {
				mode = "synchronous"
			}
			for _, groups := range []int{2, 4} {
				t.Run(fmt.Sprintf("%s/%s/g%d", p.name, mode, groups), func(t *testing.T) {
					res := runAndVerify(t, plan, p.params,
						Config{DLB: true, Synchronous: sync, Groups: groups, GroupExchangeEvery: 2},
						cluster.Config{
							Slaves: 8,
							Load:   []cluster.LoadProfile{cluster.Constant(2), nil, cluster.Constant(1)},
						})
					if res.Phases == 0 {
						t.Error("no master interactions")
					}
				})
			}
		}
	}
}

// TestGroupsRelayShrinksMasterFanIn checks the physical hierarchy: with
// leaders aggregating, the master receives and sends per group, not per
// slave, so its message count drops well below the flat run's.
func TestGroupsRelayShrinksMasterFanIn(t *testing.T) {
	plan := planFor(t, "jacobi")
	params := map[string]int{"n": 64, "maxiter": 400}
	// A small scheduler quantum shortens the balancing period so the run
	// holds many contact rounds; the initial work fan-out then stops
	// dominating the master's message count.
	cc := cluster.Config{Slaves: 16, Quantum: time.Millisecond}
	flat := runAndVerify(t, plan, params, Config{DLB: true}, cc)
	hier := runAndVerify(t, plan, params, Config{DLB: true, Groups: 4}, cc)
	if flat.MasterUsage.MessagesSent == 0 {
		t.Fatal("flat master sent no messages")
	}
	if hier.MasterUsage.MessagesSent*2 >= flat.MasterUsage.MessagesSent {
		t.Errorf("relay did not shrink master fan-out: flat %d msgs, hier %d msgs",
			flat.MasterUsage.MessagesSent, hier.MasterUsage.MessagesSent)
	}
	if hier.Counters.Get("status_reports") == 0 {
		t.Error("no status reports collected under relay")
	}
}

// TestGroupsExchangeMovesWorkAcrossBoundary drives a strongly imbalanced
// cluster and checks the diffusive exchange actually shifts units across
// a group boundary (the hier_cross_* counters).
func TestGroupsExchangeMovesWorkAcrossBoundary(t *testing.T) {
	plan := planFor(t, "jacobi")
	params := map[string]int{"n": 96, "maxiter": 24}
	res := runAndVerify(t, plan, params,
		Config{DLB: true, Groups: 2, GroupExchangeEvery: 2},
		cluster.Config{
			Slaves: 8,
			// The whole left group runs on quarter-speed machines: only an
			// inter-group shift can offload it.
			Speed: []float64{0.25, 0.25, 0.25, 0.25, 1, 1, 1, 1},
		})
	if res.Counters.Get("hier_exchanges") == 0 {
		t.Fatal("no diffusive exchanges ran")
	}
	if res.Counters.Get("hier_cross_units") == 0 {
		t.Error("no units crossed the group boundary despite a fully loaded group")
	}
}

// TestGroupsWithFaultPolicy pins the policy for grouped fault-tolerant
// runs: refusal. Every entry point returns ErrGroupsWithFaults before
// anything spawns — Run and RunReal under a fault plan (an empty one arms
// fault tolerance too), RunMasterOn and RunSlaveOn always. One group is the
// flat engine and still survives an injected crash bit-exactly.
func TestGroupsWithFaultPolicy(t *testing.T) {
	plan := planFor(t, "mm")
	params := map[string]int{"n": 40}
	crash := (&fault.Plan{}).CrashAt(1, 1200*time.Millisecond)
	grouped := ftConfig(crash)
	grouped.Plan, grouped.Params, grouped.Groups = plan, params, 2
	pre := mustPrepare(t, Config{Plan: plan, Params: params, DLB: true}, 4)
	entries := map[string]func(Config) error{
		"Run": func(c Config) error {
			_, err := Run(c, cluster.Config{Slaves: 4})
			return err
		},
		"Run/empty plan": func(c Config) error {
			c.Fault = &fault.Plan{}
			_, err := Run(c, cluster.Config{Slaves: 4})
			return err
		},
		"RunReal": func(c Config) error {
			_, err := RunReal(c, 4)
			return err
		},
		"RunMasterOn": func(c Config) error {
			c.Fault = nil
			_, err := RunMasterOn(newLocalNet(4).endpoint(cluster.MasterID, 1), c, cluster.Config{Slaves: 4}, 4, 4, pre)
			return err
		},
		"RunSlaveOn": func(c Config) error {
			c.Fault = nil
			return RunSlaveOn(newLocalNet(4).endpoint(0, 1), c, 0, 4, pre)
		},
	}
	for name, call := range entries {
		if err := call(grouped); !errors.Is(err, ErrGroupsWithFaults) {
			t.Errorf("%s with Groups 2: err = %v, want ErrGroupsWithFaults", name, err)
		}
	}

	flat := ftConfig(crash)
	flat.Groups = 1
	res := runAndVerify(t, plan, params, flat, cluster.Config{Slaves: 4})
	if res.Recoveries == 0 {
		t.Error("expected a recovery after the injected crash")
	}
	if len(res.Evicted) != 1 || res.Evicted[0] != 1 {
		t.Errorf("evicted = %v, want [1]", res.Evicted)
	}
}

// TestGroupsRelayOnWallClock runs the relay on goroutine slaves: members
// report through their leader, leaders relay the instruction back, and the
// diffusive exchange fires, with results bit-identical to the sequential
// reference.
func TestGroupsRelayOnWallClock(t *testing.T) {
	for _, p := range []struct {
		name   string
		params map[string]int
	}{
		{"mm", map[string]int{"n": 96}},
		{"sor", map[string]int{"n": 96, "maxiter": 8}},
	} {
		t.Run(p.name, func(t *testing.T) {
			plan := planFor(t, p.name)
			res, err := RunReal(Config{Plan: plan, Params: p.params, DLB: true, Groups: 2, GroupExchangeEvery: 1}, 4)
			if err != nil {
				t.Fatal(err)
			}
			verifyRealPlan(t, res, plan, p.params)
			if res.Counters.Get("hier_exchanges") == 0 {
				t.Errorf("no diffusive exchange in %d rounds", res.Counters.Get("rounds"))
			}
		})
	}
}

// TestGroupsValidation pins the config errors.
func TestGroupsValidation(t *testing.T) {
	plan := planFor(t, "mm")
	cfg := Config{Plan: plan, Params: map[string]int{"n": 24}, DLB: true, Groups: 9}
	if _, err := Run(cfg, cluster.Config{Slaves: 4}); err == nil {
		t.Error("more groups than slaves accepted")
	}
	cfg = Config{Plan: plan, Params: map[string]int{"n": 24}, Groups: 2}
	if _, err := Run(cfg, cluster.Config{Slaves: 4}); err == nil {
		t.Error("groups without DLB accepted")
	}
	cfg = Config{Plan: plan, Params: map[string]int{"n": 24}, DLB: true}
	badLoad := cluster.Config{Slaves: 4, Load: []cluster.LoadProfile{
		cluster.Steps{{At: time.Second}, {At: 0}},
	}}
	if _, err := Run(cfg, badLoad); err == nil {
		t.Error("unsorted Steps profile accepted")
	}
}
