package lru

import (
	"sync/atomic"
	"testing"
	"time"
)

// waitStats polls c until its counters reach misses and hits. A miss is
// counted when a lookup starts computing and a hit when a lookup joins
// an in-flight computation, so the test orders goroutines by them.
func waitStats(t *testing.T, c *Cache[int, string], misses, hits int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s := c.Stats(); s.Misses < misses || s.Hits < hits; s = c.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("cache stats %+v never reached %d misses, %d hits", s, misses, hits)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPanickingRunReleasesKey: run panics while a second lookup waits on
// the key. The panic reaches run's caller, the waiter is woken and runs
// the key itself (here it panics too, as the same computation would),
// and nothing is left stored or in flight: a later lookup runs and
// stores.
func TestPanickingRunReleasesKey(t *testing.T) {
	c := New[int, string](4, nil)
	release := make(chan struct{})
	owner, waiter := make(chan any), make(chan any)
	go func() {
		defer func() { owner <- recover() }()
		c.GetOrRun(1, func() string { <-release; panic("owner") })
	}()
	waitStats(t, c, 1, 0)
	var waiterRan atomic.Bool
	go func() {
		defer func() { waiter <- recover() }()
		c.GetOrRun(1, func() string { waiterRan.Store(true); panic("waiter") })
	}()
	waitStats(t, c, 1, 1)
	close(release)

	if p := <-owner; p != "owner" {
		t.Errorf("owner recovered %v, want its own panic", p)
	}
	select {
	case p := <-waiter:
		if p != "waiter" || !waiterRan.Load() {
			t.Errorf("waiter recovered %v (ran: %v), want it to run the key itself", p, waiterRan.Load())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked on a key whose run panicked")
	}

	if v, hit := c.GetOrRun(1, func() string { return "ok" }); v != "ok" || hit {
		t.Errorf("later lookup got %q hit=%v, want a fresh run", v, hit)
	}
	if v, hit := c.GetOrRun(1, func() string { return "again" }); v != "ok" || !hit {
		t.Errorf("lookup after the fresh run got %q hit=%v, want the stored value", v, hit)
	}
	// owner miss, waiter hit then retry miss, fresh-run miss, stored hit.
	if s := c.Stats(); s.Len != 1 || s.Misses != 3 || s.Hits != 2 {
		t.Errorf("stats = %+v, want 1 entry, 3 misses, 2 hits", s)
	}
}
