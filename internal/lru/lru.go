// Package lru is the one bounded least-recently-used map behind the
// service's plan cache and the compile cache. Cache is the bare structure
// under Memo, which adds what a cache in front of an expensive function
// needs: its own lock, one computation per key no matter how many callers
// miss at once, and no memory of failures.
package lru

import (
	"container/list"
	"errors"
	"sync"
)

// errPanicked is what the waiters of a flight see when its compute call
// panicked (the panicking caller sees the panic).
var errPanicked = errors.New("lru: memoized computation panicked")

// Cache is a bounded LRU map. Not safe for concurrent use: Memo locks.
type Cache[K comparable, V any] struct {
	max   int
	order *list.List // of entry[K, V]; front is the most recently used
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache holding at most max entries (at least one).
func New[K comparable, V any](max int) *Cache[K, V] {
	if max < 1 {
		max = 1
	}
	return &Cache[K, V]{max: max, order: list.New(), items: map[K]*list.Element{}}
}

// Get returns k's value and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(entry[K, V]).val, true
}

// Put stores v under k as the most recently used entry, evicting the least
// recently used ones beyond the bound.
func (c *Cache[K, V]) Put(k K, v V) {
	if el, ok := c.items[k]; ok {
		el.Value = entry[K, V]{k, v}
		c.order.MoveToFront(el)
		return
	}
	for len(c.items) >= c.max {
		old := c.order.Back()
		c.order.Remove(old)
		delete(c.items, old.Value.(entry[K, V]).key)
	}
	c.items[k] = c.order.PushFront(entry[K, V]{k, v})
}

// Delete drops k if present.
func (c *Cache[K, V]) Delete(k K) {
	if el, ok := c.items[k]; ok {
		c.order.Remove(el)
		delete(c.items, k)
	}
}

// Memo memoizes a fallible function of K in a bounded LRU. It is safe for
// concurrent use and single-flight: callers that miss on one key while its
// value is being computed wait for that computation instead of starting
// their own. An error is handed to the callers of that flight and then
// forgotten, so the next call computes again.
type Memo[K comparable, V any] struct {
	mu           sync.Mutex
	flights      *Cache[K, *flight[V]]
	hits, misses int64
}

// flight is one computation; val and err are written before done closes.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewMemo returns a Memo holding at most max values (at least one).
func NewMemo[K comparable, V any](max int) *Memo[K, V] {
	return &Memo[K, V]{flights: New[K, *flight[V]](max)}
}

// Do returns the value memoized under k, calling compute — outside the
// Memo's lock — when there is none. cached reports that this call did not
// run compute itself.
func (m *Memo[K, V]) Do(k K, compute func() (V, error)) (v V, cached bool, err error) {
	m.mu.Lock()
	if f, ok := m.flights.Get(k); ok {
		m.hits++
		m.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	m.flights.Put(k, f)
	m.misses++
	m.mu.Unlock()

	completed := false
	defer func() {
		if !completed {
			f.err = errPanicked // the panic itself continues past this defer
		}
		if f.err != nil {
			m.mu.Lock()
			// Forget the failure — unless the entry was already evicted
			// and k now belongs to a later flight.
			if cur, ok := m.flights.Get(k); ok && cur == f {
				m.flights.Delete(k)
			}
			m.mu.Unlock()
		}
		close(f.done)
	}()
	f.val, f.err = compute()
	completed = true
	return f.val, false, f.err
}

// Stats returns how many Do calls found their key (hits) and how many ran
// compute (misses).
func (m *Memo[K, V]) Stats() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}
