package netrun

import (
	"sync"

	"repro/internal/cluster"
	"repro/internal/dlb"
	"repro/internal/lru"
)

// The plan-hash init cache: a slave daemon keeps the decoded initial
// scatter payloads of its recent runs, keyed by everything that determines
// their content — the plan hash (which pins program, parameters, grain and
// distribution), the node id, and the initial membership size (which pins
// the block ownership the scatter was cut by). When a master handshakes a
// plan the daemon still holds, the daemon announces the fact in its
// HelloMsg and the master ships a tiny FromCache marker instead of the
// bulk data (see dlb.InitMsg.FromCache). The cache is groundwork for the
// ROADMAP's AOT plan cache: resubmitting the same compiled plan to a warm
// pool skips the dominant startup transfer entirely.
//
// Safety: array initialization is deterministic (loopir decl initializers,
// no randomness), so the payload is a pure function of the key; the slave
// loop only copies out of a received InitMsg, so a cached message can be
// re-played to any number of later sessions unchanged.

// initKey identifies one cached scatter payload.
type initKey struct {
	hash   string
	node   int
	slaves int
}

// initCache is a small mutex-guarded LRU (the cache holds whole array
// payloads, so a handful of entries is the point, not a limitation). A nil
// items means the cache is disabled.
type initCache struct {
	mu    sync.Mutex
	items *lru.Cache[initKey, dlb.InitMsg]
}

func newInitCache(max int) *initCache {
	if max <= 0 {
		return &initCache{} // disabled
	}
	return &initCache{items: lru.New[initKey, dlb.InitMsg](max)}
}

func (c *initCache) get(k initKey) (dlb.InitMsg, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.items == nil {
		return dlb.InitMsg{}, false
	}
	return c.items.Get(k)
}

func (c *initCache) put(k initKey, m dlb.InitMsg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.items != nil {
		c.items.Put(k, m)
	}
}

func (c *initCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.items == nil {
		return 0
	}
	return c.items.Len()
}

// initCacheEP wraps a slave session's endpoint to intercept the "init"
// scatter: a full payload is stored into the daemon cache for later runs;
// a FromCache marker is replaced by the copy pinned at handshake time, so
// the slave loop never knows the bulk data did not cross the wire.
type initCacheEP struct {
	*dlb.WallEndpoint
	cache  *initCache
	key    initKey
	cached dlb.InitMsg
	have   bool
}

func (e *initCacheEP) Recv(from int, tag string) cluster.Msg {
	m := e.WallEndpoint.Recv(from, tag)
	if m.Tag == "init" {
		m = e.resolve(m)
	}
	return m
}

func (e *initCacheEP) TryRecv(from int, tag string) (cluster.Msg, bool) {
	m, ok := e.WallEndpoint.TryRecv(from, tag)
	if ok && m.Tag == "init" {
		m = e.resolve(m)
	}
	return m, ok
}

func (e *initCacheEP) resolve(m cluster.Msg) cluster.Msg {
	im, ok := m.Data.(dlb.InitMsg)
	if !ok {
		return m
	}
	if im.FromCache {
		if !e.have {
			// The daemon only advertises InitCached after pinning the
			// payload, so a marker without one is a protocol bug, not a
			// recoverable miss.
			panic("netrun: master shipped a cached-init marker but no payload is pinned")
		}
		m.Data = e.cached
		return m
	}
	// An empty init (a resumed run's placeholder, or a slave that owns no
	// units) is not worth caching — and must never shadow a real payload.
	if len(im.Owned) > 0 || len(im.Replicated) > 0 {
		e.cache.put(e.key, im)
	}
	return m
}

// advisedEndpoint decorates the master endpoint with the per-slave init
// cache advisory collected during the handshakes (dlb.InitCacheAdvisor):
// the engine ships a FromCache marker to every slave whose daemon
// announced it still holds this plan's payload.
type advisedEndpoint struct {
	*dlb.WallEndpoint
	cached []bool
}

func (a *advisedEndpoint) InitCached(slave int) bool {
	return slave >= 0 && slave < len(a.cached) && a.cached[slave]
}
