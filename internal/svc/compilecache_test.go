package svc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/netrun"
)

// TestConcurrentFirstSubmissionsCompileOnce releases N submissions of one
// never-seen program at once. Submit resolves the plan before it takes the
// service lock, so the N race into the plan cache; it compiles and prepares
// once, and every job still runs to a bit-exact result.
func TestConcurrentFirstSubmissionsCompileOnce(t *testing.T) {
	s := newTestService(t, 2, netrun.ServerOptions{}, Options{})
	spec := testSpec(t, "mm", 48, 0, 2)
	const n = 6
	ids := make([]string, n)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			id, err := s.Submit(spec)
			if err != nil {
				t.Error(err)
			}
			ids[i] = id
		}()
	}
	close(release)
	wg.Wait()
	if t.Failed() {
		return
	}
	if hits, misses := s.plans.compiled.Stats(); hits != 0 || misses != 1 {
		t.Errorf("compile cache: %d hits, %d misses; want one compilation and nothing else reaching it", hits, misses)
	}
	if hits, misses := s.plans.prepared.Stats(); hits != n-1 || misses != 1 {
		t.Errorf("plan cache: %d hits, %d misses; want %d, 1", hits, misses, n-1)
	}
	want := refSums(t, spec)
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("job id %s handed out twice", id)
		}
		seen[id] = true
		waitState(t, s, id, 60*time.Second, StateDone)
		checkResultSums(t, s, id, want)
	}
}

// TestOneCompilePerProgramAcrossSizes runs one program at three sizes back
// to back over one daemon pair. Each size is a new plan-cache entry and a
// new plan hash, but the program text compiles once per owner — once on the
// service, once in each daemon — every gather is bit-exact, and the plan the
// three jobs shared is unchanged afterwards. A daemon whose cached plan had
// drifted would also fail its own plan-hash check at the next handshake.
func TestOneCompilePerProgramAcrossSizes(t *testing.T) {
	addrs, srvs := startPool(t, 2, netrun.ServerOptions{})
	s := newTestService(t, 2, netrun.ServerOptions{}, Options{Addrs: addrs})
	fingerprint := func(p *compile.Plan) string {
		return fmt.Sprintf("%s\n--\n%s\n--\n%v %v", p.Source, compile.RenderPlan(p), p.DistArrays, p.Dist)
	}
	var shared *compile.Plan
	var before string
	sizes := []int{40, 52, 64}
	for _, n := range sizes {
		spec := testSpec(t, "sor", n, 4, 2)
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, id, 60*time.Second, StateDone)
		checkResultSums(t, s, id, refSums(t, spec))
		s.mu.Lock()
		plan := s.jobs[id].entry.plan
		s.mu.Unlock()
		if shared == nil {
			shared, before = plan, fingerprint(plan)
		} else if plan != shared {
			t.Errorf("n=%d ran on its own plan, not the one compiled for the first size", n)
		}
	}
	if after := fingerprint(shared); after != before {
		t.Errorf("jobs modified the shared cached plan:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	z := s.Statsz()
	if z.CompileCacheMisses != 1 || z.CompileCacheHits != int64(len(sizes)-1) {
		t.Errorf("service compile cache: %d hits, %d misses; want %d, 1", z.CompileCacheHits, z.CompileCacheMisses, len(sizes)-1)
	}
	for i, srv := range srvs {
		if hits, misses := srv.CompileCacheStats(); misses != 1 || hits != int64(len(sizes)-1) {
			t.Errorf("daemon %d compile cache: %d hits, %d misses; want %d, 1", i, hits, misses, len(sizes)-1)
		}
	}

	// The directive is part of the content: the same text under derived
	// loops is another program.
	spec := testSpec(t, "sor", 40, 4, 2)
	spec.DistLoops = nil
	if err := s.Warm(spec); err != nil {
		t.Fatal(err)
	}
	if z := s.Statsz(); z.CompileCacheMisses != 2 {
		t.Errorf("a different directive on known text: %d misses, want 2", z.CompileCacheMisses)
	}
}
