package netrun

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/dlb"
)

// planFingerprint renders everything of a plan a run could have scribbled
// on: the stored source, the step tree rendered afresh, the distribution.
func planFingerprint(p *compile.Plan) string {
	return fmt.Sprintf("%s\n--\n%s\n--\n%v %v", p.Source, compile.RenderPlan(p), p.DistArrays, p.Dist)
}

// TestCachedPlanSharedBySessions gives two daemons one compile cache — the
// harshest sharing a cached plan can see — and drives them with two
// concurrent single-slave masters (both daemons miss on one key at once),
// then with one P=2 job per problem size (both slave loops execute the one
// plan at once, each instantiated at a size the plan was not first compiled
// for). Under -race this is the proof that a cached plan is read-only: one
// compilation, every gather bit-exact, the plan unchanged afterwards.
func TestCachedPlanSharedBySessions(t *testing.T) {
	shared := compile.NewCache(4)
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := NewServer(ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		srv.plans = shared // before Serve: no session has read the field yet
		addrs = append(addrs, srv.Addr())
		go srv.Serve()
		t.Cleanup(func() { srv.Close() })
	}
	run := func(n int, addrs []string) {
		plan, params := testPlan(t, "sor", n, 4)
		cfg := dlb.Config{Plan: plan, Params: params, DLB: true, RealQuantum: 2 * time.Millisecond}
		res, err := RunMaster(cfg, addrs, MasterOptions{})
		if err != nil {
			t.Errorf("n=%d on %d slaves: %v", n, len(addrs), err)
			return
		}
		checkBitIdentical(t, res, seqReference(t, plan, params))
	}

	var wg sync.WaitGroup
	for i, n := range []int{40, 44} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(n, addrs[i:i+1])
		}()
	}
	wg.Wait()

	// The daemons' plan, fetched the way a session fetches it: from the
	// spec a master ships.
	plan, params := testPlan(t, "sor", 40, 4)
	cfg := dlb.Config{Plan: plan, Params: params, DLB: true, RealQuantum: 2 * time.Millisecond}
	pre, err := dlb.Prepare(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CompileOpts = pre.Opts
	shipped, cached, err := configFromSpec(shared, specFromConfig(cfg, pre.Grain, time.Second))
	if err != nil || !cached {
		t.Fatalf("the sessions' plan is not in the cache under the shipped content: cached %v, err %v", cached, err)
	}
	daemonPlan := shipped.Plan
	before := planFingerprint(daemonPlan)

	sizes := []int{48, 56, 64}
	for _, n := range sizes {
		run(n, addrs)
	}
	if after := planFingerprint(daemonPlan); after != before {
		t.Errorf("sessions modified the shared cached plan:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	wantHits := int64(2 + 1 + 2*len(sizes) - 1) // every lookup but the one that compiled
	if hits, misses := shared.Stats(); misses != 1 || hits != wantHits {
		t.Errorf("compile cache: %d hits, %d misses; want %d, 1", hits, misses, wantHits)
	}
}
