package lru

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 { // a is now the most recent
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("c", 3) // evicts b, the least recently used
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction although a was used after it")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a was evicted although it was used after b")
	}
	c.Put("a", 10) // replacing neither grows the cache nor evicts
	if v, _ := c.Get("a"); v != 10 || len(c.items) != 2 {
		t.Errorf("after replace: a = %d, len = %d; want 10, 2", v, len(c.items))
	}
	c.Delete("a")
	c.Delete("never-there")
	if _, ok := c.Get("a"); ok || len(c.items) != 1 {
		t.Errorf("after delete: a present = %v, len = %d; want false, 1", ok, len(c.items))
	}
	if New[int, int](0).max != 1 {
		t.Error("a non-positive bound must clamp to one entry")
	}
}

// TestMemoSingleFlight releases many callers onto one cold key at once: the
// function runs once and everyone gets its value.
func TestMemoSingleFlight(t *testing.T) {
	m := NewMemo[string, *int](4)
	const callers = 16
	var calls atomic.Int32
	release := make(chan struct{})
	got := make([]*int, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			v, _, err := m.Do("k", func() (*int, error) {
				calls.Add(1)
				return new(int), nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times for one key, want 1", n)
	}
	for i, v := range got {
		if v != got[0] {
			t.Fatalf("caller %d got a different value than caller 0", i)
		}
	}
	if hits, misses := m.Stats(); misses != 1 || hits != callers-1 {
		t.Errorf("stats = %d hits, %d misses; want %d, 1", hits, misses, callers-1)
	}
}

func TestMemoForgetsErrorsAndPanics(t *testing.T) {
	m := NewMemo[string, int](4)
	boom := errors.New("boom")
	if _, _, err := m.Do("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panic did not reach the caller that computed")
			}
		}()
		m.Do("k", func() (int, error) { panic("bug") })
	}()
	v, cached, err := m.Do("k", func() (int, error) { return 7, nil })
	if v != 7 || cached || err != nil {
		t.Fatalf("after an error and a panic: Do = %d, cached %v, %v; want a fresh 7", v, cached, err)
	}
	v, cached, _ = m.Do("k", func() (int, error) { t.Error("recomputed a held value"); return 0, nil })
	if v != 7 || !cached {
		t.Fatalf("second Do = %d, cached %v; want the held 7", v, cached)
	}
}

func TestMemoBounded(t *testing.T) {
	m := NewMemo[int, int](2)
	for k := 0; k < 3; k++ {
		m.Do(k, func() (int, error) { return k, nil })
	}
	if _, cached, _ := m.Do(0, func() (int, error) { return 0, nil }); cached {
		t.Error("key 0 outlived a bound of 2 after keys 1 and 2 arrived")
	}
}
