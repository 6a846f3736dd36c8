package svc

import (
	"time"

	"repro/internal/metrics"
)

// tenantStats is one tenant's accumulated telemetry. Guarded by the
// Service's mutex.
type tenantStats struct {
	Submitted   int64            `json:"submitted"`
	Rejected    int64            `json:"rejected"`
	Done        int64            `json:"done"`
	Failed      int64            `json:"failed"`
	Canceled    int64            `json:"canceled"`
	Preemptions int64            `json:"preemptions"`
	Resumes     int64            `json:"resumes"`
	WaitedMS    int64            `json:"waited_ms"`
	RanMS       int64            `json:"ran_ms"`
	SlaveSec    float64          `json:"slave_seconds"` // Σ slaves × lease seconds
	Counters    metrics.Counters `json:"counters"`      // merged engine counters
}

// stats aggregates per-tenant accounting plus the fairness weights.
type stats struct {
	weights map[string]float64
	tenants map[string]*tenantStats
}

func newStats(weights map[string]float64) *stats {
	return &stats{weights: weights, tenants: map[string]*tenantStats{}}
}

func (s *stats) tenant(name string) *tenantStats {
	t := s.tenants[name]
	if t == nil {
		t = &tenantStats{Counters: metrics.Counters{}}
		s.tenants[name] = t
	}
	return t
}

// weight returns a tenant's fairness weight (default 1).
func (s *stats) weight(name string) float64 {
	if w, ok := s.weights[name]; ok && w > 0 {
		return w
	}
	return 1
}

// served is the fairness criterion: accumulated slave-seconds normalized
// by weight. A heavier tenant has to consume proportionally more before it
// yields its turn.
func (s *stats) served(name string) float64 {
	return s.tenant(name).SlaveSec / s.weight(name)
}

// charge books one finished lease segment against a tenant.
func (s *stats) charge(tenant string, slaves int, held time.Duration) {
	t := s.tenant(tenant)
	t.SlaveSec += float64(slaves) * held.Seconds()
	t.RanMS += held.Milliseconds()
}

// Statsz is the /statsz snapshot.
type Statsz struct {
	UptimeMS   int64 `json:"uptime_ms"`
	PoolSize   int   `json:"pool_size"`
	PoolFree   int   `json:"pool_free"`
	QueueDepth int   `json:"queue_depth"`
	QueueMax   int   `json:"queue_max"`
	Running    int   `json:"running"`
	// CompileCache* count plan-cache misses that found their program text
	// already compiled (hits) and ones that compiled it (misses).
	CompileCacheHits   int64                   `json:"compile_cache_hits"`
	CompileCacheMisses int64                   `json:"compile_cache_misses"`
	Jobs               map[string]int          `json:"jobs"` // state -> count
	Tenants            map[string]*tenantStats `json:"tenants"`
}
