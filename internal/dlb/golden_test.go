package dlb

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
)

var printGolden = flag.Bool("print-golden", false,
	"print the schedule fingerprints as Go literals for golden_table_test.go instead of comparing")

// fingerprint pins one simulated run's schedule: virtual makespan, master
// rounds, issued moves, and the final ownership map.
type fingerprint struct {
	Elapsed    time.Duration
	Phases     int
	Moves      int
	UnitsMoved int
	OwnerHash  uint64 // FNV-1a over Result.Owner, 4 bytes little-endian per unit
	Recoveries int
}

func fingerprintOf(res *Result) fingerprint {
	h := fnv.New64a()
	var b [4]byte
	for _, o := range res.Owner {
		binary.LittleEndian.PutUint32(b[:], uint32(o))
		h.Write(b[:])
	}
	return fingerprint{res.Elapsed, res.Phases, res.Moves, res.UnitsMoved, h.Sum64(), res.Recoveries}
}

// goldenProgs is the program axis: four dense library programs and the two
// skewed ones, sized so a 6-slave run holds several balancing rounds before
// and after crashAt (the mid-run crash of the fault axis).
var goldenProgs = []struct {
	name      string
	params    map[string]int
	irregular bool
	flopCost  time.Duration
	crashAt   time.Duration
}{
	{"mm", map[string]int{"n": 48}, false, 100 * time.Microsecond, 1500 * time.Millisecond},
	{"sor", map[string]int{"n": 48, "maxiter": 6}, false, 100 * time.Microsecond, 1500 * time.Millisecond},
	{"lu", map[string]int{"n": 48}, false, 100 * time.Microsecond, 1500 * time.Millisecond},
	{"jacobi", map[string]int{"n": 48, "maxiter": 12}, false, 100 * time.Microsecond, 1500 * time.Millisecond},
	{"spmv", map[string]int{"n": 1024, "maxiter": 16}, true, 25 * time.Microsecond, 1500 * time.Millisecond},
	{"pbin", map[string]int{"n": 128, "maxiter": 16}, true, 12 * time.Microsecond, 400 * time.Millisecond},
}

// TestGoldenSchedules pins the balancer's observable behaviour across the
// topology × cost-model × discipline × fault matrix. Every literal in
// goldenSchedules was recorded at the commit *before* the four decision
// bodies (flat/hier × uniform/weighted) were folded into core.Balancer, so
// a pass means the one-step composition reproduces the old schedules to the
// nanosecond and the last ownership entry.
//
// The one place the parent's numbers are not binding is Groups>1 × learned
// with live (non-uniform) weights: the parent ran that combination through
// hierTopology.decideWeighted, a fork nothing else exercised, and the
// composition's behaviour is now the definition. That is every such cell of
// the skewed programs (spmv, pbin). Those cells assert instead that the
// result matches the sequential reference bit for bit (runAndVerify),
// ownership is a partition over the slaves, and the makespan is no worse
// than the same cell under the uniform cost model.
//
// Groups>1 × crash cells pin the refusal instead: a grouped run cannot be
// fault-tolerant, so Run must return ErrGroupsWithFaults.
func TestGoldenSchedules(t *testing.T) {
	cc := cluster.Config{
		Slaves: 6,
		// Group 0 of every grouping carries the competing load, so both
		// intra-group balancing and the inter-group exchange have work to
		// do; the fault axis crashes a full-speed slave of the last group.
		Load: []cluster.LoadProfile{cluster.Constant(2), nil, cluster.Constant(1)},
	}
	for _, p := range goldenProgs {
		plan := planFor(t, p.name)
		for _, mode := range []string{"pipelined", "synchronous"} {
			for _, groups := range []int{0, 1, 2, 3} {
				for _, crash := range []bool{false, true} {
					var uniformElapsed time.Duration
					for _, cost := range []string{CostUniform, CostLearned} {
						faultName := "nofault"
						var fp *fault.Plan
						if crash {
							faultName = "crash"
							fp = (&fault.Plan{}).CrashAt(4, p.crashAt)
						}
						key := fmt.Sprintf("%s/%s/g%d/%s/%s", p.name, mode, groups, cost, faultName)
						cfg := ftConfig(fp)
						cfg.FlopCost = p.flopCost
						cfg.Synchronous = mode == "synchronous"
						cfg.Groups = groups
						cfg.GroupExchangeEvery = 2
						cfg.CostModel = cost
						binding := !(p.irregular && groups > 1 && cost == CostLearned)
						t.Run(key, func(t *testing.T) {
							if crash && groups > 1 {
								cfg.Plan, cfg.Params = plan, p.params
								if _, err := Run(cfg, cc); !errors.Is(err, ErrGroupsWithFaults) {
									t.Fatalf("grouped fault-tolerant run: err = %v, want ErrGroupsWithFaults", err)
								}
								return
							}
							res := runAndVerify(t, plan, p.params, cfg, cc)
							got := fingerprintOf(res)
							if cost == CostUniform {
								uniformElapsed = res.Elapsed
							}
							if crash && res.Recoveries == 0 {
								t.Errorf("crash at %v did not land mid-run (no recovery)", p.crashAt)
							}
							if *printGolden {
								if binding {
									fmt.Printf("\t%q: {%d, %d, %d, %d, %#x, %d},\n", key,
										got.Elapsed, got.Phases, got.Moves, got.UnitsMoved, got.OwnerHash, got.Recoveries)
								}
								return
							}
							if !binding {
								assertPartition(t, res, cc.Slaves)
								if res.Elapsed > uniformElapsed {
									t.Errorf("learned makespan %v worse than uniform %v", res.Elapsed, uniformElapsed)
								}
								return
							}
							want, ok := goldenSchedules[key]
							if !ok {
								t.Fatalf("no golden fingerprint recorded for %s", key)
							}
							if got != want {
								t.Errorf("schedule drifted from the parent-recorded fingerprint:\n got %+v\nwant %+v", got, want)
							}
						})
					}
				}
			}
		}
	}
}

// assertPartition checks the final ownership map assigns every unit to
// exactly one slave that was not evicted.
func assertPartition(t *testing.T, res *Result, slaves int) {
	t.Helper()
	dead := map[int]bool{}
	for _, id := range res.Evicted {
		dead[id] = true
	}
	if len(res.Owner) != res.Exec.Units {
		t.Fatalf("owner map covers %d units, want %d", len(res.Owner), res.Exec.Units)
	}
	for u, o := range res.Owner {
		if o < 0 || o >= slaves || dead[o] {
			t.Fatalf("unit %d owned by %d (slaves %d, evicted %v)", u, o, slaves, res.Evicted)
		}
	}
}
