package compile

import (
	"sync"
	"testing"

	"repro/internal/depend"
	"repro/internal/lang"
	"repro/internal/loopir"
)

func TestCacheCompilesOncePerContent(t *testing.T) {
	c := NewCache(8)
	src := lang.Format(loopir.SOR())
	first, cached, err := c.Compile(src, Options{Dist: specSOR()})
	if err != nil || cached {
		t.Fatalf("cold Compile: cached %v, err %v", cached, err)
	}
	// Equal content in fresh maps, and the defaults spelled out, are the
	// same key.
	again, cached, err := c.Compile(src, Options{Dist: specSOR(), HookFraction: 0.01, HookCostFlops: 200})
	if err != nil || !cached || again != first {
		t.Fatalf("warm Compile: cached %v, same plan %v, err %v", cached, again == first, err)
	}
	fresh := mustCompile(t, loopir.SOR(), Options{Dist: specSOR()})
	if first.Source != fresh.Source {
		t.Error("the cached plan renders differently from a direct compilation")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
}

// TestCacheKeyCoversEveryOption: anything Compile reads makes its own entry
// — the hook rule and the directive change the generated program.
func TestCacheKeyCoversEveryOption(t *testing.T) {
	c := NewCache(8)
	src := lang.Format(loopir.Jacobi())
	variants := []Options{
		{Dist: specJacobi()},
		{Dist: specJacobi(), HookFraction: 0.5},
		{Dist: specJacobi(), HookCostFlops: 5},
		{Dist: depend.DistSpec{Dims: specJacobi().Dims}}, // loops derived, not given
		{Dist: depend.DistSpec{Dims: specJacobi().Dims, Loops: []string{"i2", "i"}}},
		{}, // automatic distribution
		{Dist: specJacobi(), Samples: []map[string]int{{"n": 6, "maxiter": 2}}},
	}
	plans := map[*Plan]bool{}
	for i, o := range variants {
		p, cached, err := c.Compile(src, o)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if cached {
			t.Errorf("variant %d was served another variant's plan", i)
		}
		plans[p] = true
	}
	if _, cached, _ := c.Compile(lang.Format(loopir.JacobiConverge()), variants[0]); cached {
		t.Error("a different program text hit")
	}
	if _, misses := c.Stats(); int(misses) != len(variants)+1 || len(plans) != len(variants) {
		t.Errorf("%d misses, %d distinct plans; want %d, %d", misses, len(plans), len(variants)+1, len(variants))
	}
}

func TestCacheDoesNotRememberErrors(t *testing.T) {
	c := NewCache(8)
	for i := 0; i < 2; i++ {
		if _, _, err := c.Compile("program broken(", Options{}); err == nil {
			t.Fatal("a syntax error compiled")
		}
		if _, _, err := c.Compile(lang.Format(loopir.SOR()), Options{Dist: depend.DistSpec{Dims: map[string]int{"nosuch": 0}}}); err == nil {
			t.Fatal("a directive naming an unknown array compiled")
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 4 {
		t.Errorf("stats = %d hits, %d misses; want every failing call to recompile (0, 4)", hits, misses)
	}
}

// TestCachedPlanOwnsItsDirective: the plan keeps the directive's maps, so
// the cache must not let a caller's later edits reach a shared plan.
func TestCachedPlanOwnsItsDirective(t *testing.T) {
	c := NewCache(8)
	opts := Options{Dist: specMM()}
	p, _, err := c.Compile(lang.Format(loopir.MatMul()), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Dist.Dims["c"] = 0
	opts.Dist.Loops[0] = "i"
	if p.DistArrays["c"] != 1 || p.Dist.Loops[0] != "j" {
		t.Errorf("editing the request changed the cached plan: %v %v", p.DistArrays, p.Dist.Loops)
	}
}

// TestCacheConcurrentMisses: callers that miss together on one key share
// one compilation and one plan (run with -race).
func TestCacheConcurrentMisses(t *testing.T) {
	c := NewCache(8)
	src := lang.Format(loopir.LU())
	const callers = 8
	plans := make([]*Plan, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, _, err := c.Compile(src, Options{Dist: specLU()})
			if err != nil {
				t.Error(err)
				return
			}
			// Every caller instantiates the shared plan at its own size.
			if _, err := p.Instantiate(map[string]int{"n": 16 + i}, 1, Options{}); err != nil {
				t.Error(err)
			}
			plans[i] = p
		}()
	}
	wg.Wait()
	for i, p := range plans {
		if p != plans[0] {
			t.Fatalf("caller %d got its own plan", i)
		}
	}
	if _, misses := c.Stats(); misses != 1 {
		t.Errorf("%d compilations for one key, want 1", misses)
	}
}
