// Package lru is a bounded, single-flight, least-recently-used cache:
// the one store behind the warm state of a localization — switched
// re-executions (verifyengine.RunCache) and compiled programs
// (corpus.Shared).
//
// Single-flight means a lookup of a key whose value is being computed
// waits for that computation instead of repeating it, so concurrent
// callers that need the same value pay for it once.
package lru

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time snapshot of a Cache's counters.
type Stats struct {
	Hits      int64 // lookups served from a stored or in-flight value
	Misses    int64 // lookups that had to compute
	Evictions int64 // entries dropped by the LRU policy
	Len       int   // entries currently stored
	Cap       int   // capacity
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache maps K to V, holding at most its capacity in entries and
// evicting the least recently used one to make room. It is safe for
// concurrent use. Stored values are shared by every caller that looks
// them up, so they must be treated as read-only.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	cap      int
	keep     func(V) bool
	ll       *list.List // front = most recently used
	items    map[K]*list.Element
	inflight map[K]*call[V]

	hits, misses, evictions int64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// call is one computation in flight. done closes when it ends; ok
// reports that run returned (false: it panicked, and val is unset).
type call[V any] struct {
	done chan struct{}
	val  V
	ok   bool
}

// New returns a cache of at most capacity entries (capacity must be
// positive). keep decides which computed values are stored; a nil keep
// stores them all.
func New[K comparable, V any](capacity int, keep func(V) bool) *Cache[K, V] {
	if capacity <= 0 {
		panic("lru: capacity must be positive")
	}
	return &Cache[K, V]{
		cap:      capacity,
		keep:     keep,
		ll:       list.New(),
		items:    map[K]*list.Element{},
		inflight: map[K]*call[V]{},
	}
}

// GetOrRun returns the value stored for key, or computes it with run
// exactly once per key: concurrent lookups of the key wait for the first
// and share its value. The value is stored unless keep rejects it; a
// rejected value still goes to the lookups that waited for it. hit
// reports whether this lookup was served without calling run.
//
// If run panics, the panic propagates to GetOrRun's caller and nothing
// is stored. Each lookup waiting on the key then retries it as if it had
// just arrived (counting once more), so one of them calls its own run.
func (c *Cache[K, V]) GetOrRun(key K, run func() V) (val V, hit bool) {
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.hits++
			val = el.Value.(*entry[K, V]).val
			c.mu.Unlock()
			return val, true
		}
		if cl, ok := c.inflight[key]; ok {
			c.hits++
			c.mu.Unlock()
			<-cl.done
			if cl.ok {
				return cl.val, true
			}
			continue
		}
		cl := &call[V]{done: make(chan struct{})}
		c.inflight[key] = cl
		c.misses++
		c.mu.Unlock()
		return c.do(key, cl, run), false
	}
}

// do runs the computation cl owns. Its deferred half always clears the
// key's in-flight mark and wakes the waiters, even when run panics;
// otherwise every later lookup of the key would wait forever.
func (c *Cache[K, V]) do(key K, cl *call[V], run func() V) V {
	defer func() {
		store := cl.ok && (c.keep == nil || c.keep(cl.val))
		c.mu.Lock()
		delete(c.inflight, key)
		if store {
			c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: cl.val})
			for c.ll.Len() > c.cap {
				back := c.ll.Back()
				c.ll.Remove(back)
				delete(c.items, back.Value.(*entry[K, V]).key)
				c.evictions++
			}
		}
		c.mu.Unlock()
		close(cl.done)
	}()
	cl.val = run()
	cl.ok = true
	return cl.val
}

// Stats snapshots the cache counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Len: c.ll.Len(), Cap: c.cap,
	}
}
