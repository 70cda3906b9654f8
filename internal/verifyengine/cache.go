package verifyengine

import (
	"eol/internal/interp"
	"eol/internal/lru"
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
type CacheStats = lru.Stats

// RunCache is a bounded LRU cache of switched re-executions, safe for
// concurrent use. Lookups of a key whose run is currently being computed
// block until that run finishes instead of re-executing (single-flight),
// which is what lets parallel workers verifying different uses of the
// same predicate share one interpreter run.
//
// Stored results — including their traces — are shared across callers
// and must be treated as read-only; a trace is finished (every index
// built) before its run returns, so reading it needs no lock.
type RunCache = lru.Cache[RunKey, *interp.Result]

// NewRunCache returns a cache bounded to max entries (<= 0 means
// DefaultCacheSize).
func NewRunCache(max int) *RunCache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return lru.New[RunKey](max, storable)
}

// storable is the RunCache's rule for which runs it keeps. A run aborted
// by its caller's context is NOT a value of the pure function the key
// names — it is an artifact of that caller's deadline. Storing it would
// poison every later localization sharing this cache with a wrong NOT_ID
// verdict. It goes to current waiters only (they re-check their own
// contexts and retry), and the key stays uncached so the next lookup
// re-executes.
func storable(res *interp.Result) bool {
	return res == nil || !interp.IsCancellation(res.Err)
}
