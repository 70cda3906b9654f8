package verifyengine

import (
	"container/list"
	"sync"

	"eol/internal/interp"
	"eol/internal/trace"
)

// DefaultCacheSize is the switched-run cache capacity when none is given.
// One entry holds a full traced re-execution, so the working set is the
// number of distinct predicate instances verified per localization — tens
// on the paper's benchmarks; 256 leaves room for shared caches serving
// several concurrent localizations.
const DefaultCacheSize = 256

// RunKey identifies one switched re-execution. Re-execution is a pure
// function of (program, input, switched predicate instance, step budget):
// the interpreter is deterministic, so two requests with equal keys
// produce identical runs and the first result can stand in for all later
// ones. Program and input enter as FNV-64a hashes so one cache can be
// shared across localizations of different programs.
//
// Checkpointed replay (docs/CHECKPOINT.md) deliberately does NOT enter
// the key: a run forked from a checkpoint is byte-identical to the full
// run it replaces, so the cached value is independent of whether — and
// from which checkpoint — it was produced. Adding a checkpoint component
// would only split identical entries and lower the hit rate.
//
// The backend NAME does enter the key, even though backends are
// byte-identical by contract: the cache is exactly the machinery that
// would mask a divergence between them (a vm run served to a tree
// verifier would hide the very bug the differential lanes exist to
// catch), so cross-backend sharing is deliberately forgone.
type RunKey struct {
	Prog    uint64 // hash of the program source
	Input   uint64 // hash of the failing input vector
	Backend string // executing backend name ("tree", "vm")
	Pred    trace.Instance
	Budget  int
}

// CacheStats is a point-in-time snapshot of a RunCache's counters.
type CacheStats struct {
	Hits      int64 // lookups served from a stored or in-flight run
	Misses    int64 // lookups that had to execute
	Evictions int64 // entries dropped by the LRU policy
	Len       int   // entries currently stored
	Cap       int   // capacity
}

// RunCache is a bounded LRU cache of switched re-executions, safe for
// concurrent use. Lookups of a key whose run is currently being computed
// block until that run finishes instead of re-executing (single-flight),
// which is what lets parallel workers verifying different uses of the
// same predicate share one interpreter run.
//
// Stored results — including their traces — are shared across callers
// and must be treated as read-only; the engine pre-builds each trace's
// lazy ancestry index before publishing it.
type RunCache struct {
	mu       sync.Mutex
	cap      int
	ll       *list.List // front = most recently used
	items    map[RunKey]*list.Element
	inflight map[RunKey]*inflightRun

	hits, misses, evictions int64
}

type cacheEntry struct {
	key RunKey
	res *interp.Result
}

type inflightRun struct {
	done chan struct{}
	res  *interp.Result
}

// NewRunCache returns a cache bounded to max entries (<= 0 means
// DefaultCacheSize).
func NewRunCache(max int) *RunCache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &RunCache{
		cap:      max,
		ll:       list.New(),
		items:    map[RunKey]*list.Element{},
		inflight: map[RunKey]*inflightRun{},
	}
}

// GetOrRun returns the cached run for key, or executes run exactly once
// per key (concurrent callers for the same key wait for the first) and
// stores the result. hit reports whether an execution was avoided.
func (c *RunCache) GetOrRun(key RunKey, run func() *interp.Result) (res *interp.Result, hit bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		res = el.Value.(*cacheEntry).res
		c.mu.Unlock()
		return res, true
	}
	if fl, ok := c.inflight[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-fl.done
		return fl.res, true
	}
	fl := &inflightRun{done: make(chan struct{})}
	c.inflight[key] = fl
	c.misses++
	c.mu.Unlock()

	fl.res = run()

	c.mu.Lock()
	delete(c.inflight, key)
	// A run aborted by its caller's context is NOT a value of the pure
	// function the key names — it is an artifact of that caller's
	// deadline. Storing it would poison every later localization sharing
	// this cache with a wrong NOT_ID verdict. Deliver it to current
	// waiters only (they re-check their own contexts and retry) and leave
	// the key uncached so the next lookup re-executes.
	if fl.res == nil || !interp.IsCancellation(fl.res.Err) {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: fl.res})
		for c.ll.Len() > c.cap {
			back := c.ll.Back()
			c.ll.Remove(back)
			delete(c.items, back.Value.(*cacheEntry).key)
			c.evictions++
		}
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.res, false
}

// Stats snapshots the cache counters.
func (c *RunCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Len: c.ll.Len(), Cap: c.cap,
	}
}
