// Package verifyengine schedules implicit-dependence verifications — the
// hot path of the demand-driven locator (Algorithm 2 of the PLDI 2007
// paper). Every candidate potential dependence costs one switched
// re-execution of the whole program plus region alignment; the paper's
// per-run "verification timer" exists because this dominates wall clock.
//
// The engine attacks that cost on two axes without changing observable
// results:
//
//   - Parallelism: VerifyBatchContext fans a batch of verification
//     requests out across a bounded worker pool (GOMAXPROCS-sized by
//     default). Each worker owns a Clone of the base implicit.Verifier,
//     so no verifier state is shared; results are then absorbed into
//     the base verifier in request order, which keeps the Verifications
//     counter, the VerifyLog order and the verdict memo byte-identical
//     to what a sequential loop would have produced.
//   - Memoization: switched re-executions are pure functions of
//     (program, input, switched predicate instance, budget), so they are
//     cached in an LRU RunCache keyed exactly by that tuple. Verifying
//     many uses against the same predicate — the sibling-use pass of
//     Fig. 5, and re-ranked candidates across PruneSlicing iterations —
//     reuses one interpreter run instead of re-executing per use.
//   - Checkpointed replay: when the base verifier carries a checkpoint
//     store captured during the failing run (only the VM backend builds
//     one), each cache MISS forks from the nearest checkpoint at or
//     before the switched predicate and re-executes only the suffix
//     (docs/CHECKPOINT.md).
//     Forked runs are byte-identical to full runs, so the RunCache key
//     needs no checkpoint component: the cached value is the same object
//     either way, only cheaper to produce.
//
// Determinism: the interpreter is deterministic, alignment is a pure
// function of the two traces, and absorption happens sequentially in
// request order. Worker scheduling therefore cannot change any verdict,
// counter or log entry — only wall-clock time. See
// docs/VERIFICATION_ENGINE.md for the architecture tour and tuning guide.
package verifyengine

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"eol/internal/backend"
	"eol/internal/implicit"
	"eol/internal/interp"
	"eol/internal/obs"
	"eol/internal/trace"
)

// Config sizes one Engine.
type Config struct {
	// Workers is the verification worker-pool size; <= 0 means
	// GOMAXPROCS. 1 degenerates to the sequential inline path.
	Workers int
	// CacheSize bounds the switched-run cache: 0 means DefaultCacheSize,
	// negative disables caching entirely.
	CacheSize int
	// Cache, if non-nil, is used instead of building a private cache —
	// the sharing point for serving many localizations of the same
	// program/input family from one store. Overrides CacheSize.
	Cache *RunCache
	// Filter, if non-nil, reports that a request's verdict is statically
	// provable to be NOT_ID (no implicit dependence). Filtered requests
	// are answered without a switched re-execution: the engine
	// synthesizes the NOT_ID result and absorbs it in request order, so
	// the verifier's log, counters and memo stay byte-identical to an
	// unfiltered run — only Stats.Runs drops. The filter MUST only
	// return true when the verdict is provably NOT_ID; it is consulted
	// from the planning loop, never concurrently.
	Filter func(implicit.Request) bool
	// Rec, if non-nil, receives verify_batch spans, per-verification
	// switched_run marks and per-batch counter deltas. All emission
	// happens on the VerifyBatchContext caller's goroutine — batch planning and
	// sequential absorption — never from workers, and the worker count is
	// never recorded, so the stream is identical for any Workers value.
	Rec *obs.Recorder
	// Ctx, if non-nil, bounds every switched re-execution and
	// verification batch: when it is cancelled or deadlined, in-flight
	// interpreter runs abort with interp.ErrCanceled/ErrDeadline and
	// VerifyBatchContext returns the cancellation instead of absorbing
	// partial verdicts. Defaults to context.Background().
	Ctx context.Context
}

// Stats reports what one engine did. Cache* counters are per-engine
// (this run's hits and misses), except CacheEvictions which is read from
// the underlying cache and is global when the cache is shared.
type Stats struct {
	Workers int
	// Batches and Batched count VerifyBatchContext calls and the
	// requests they carried.
	Batches, Batched int64
	// Runs counts switched re-executions actually performed.
	Runs int64
	// CacheHits / CacheMisses count switched-run lookups served from /
	// missing the cache. Hits are re-executions avoided.
	CacheHits, CacheMisses int64
	CacheEvictions         int64
	// StaticSkips counts verifications answered by the static skip
	// filter (Config.Filter) without any switched re-execution.
	StaticSkips int64
	// CheckpointHits counts switched runs served by forking from a
	// checkpoint of the failing run instead of replaying from the start;
	// SuffixSteps totals the steps those forks actually executed (their
	// full-run equivalents would have executed Steps, not Steps −
	// ResumedAt). Neither is emitted as a journal counter: whether a
	// given run forks depends on cache state, which varies across
	// worker/shard configurations even though the run RESULTS do not.
	CheckpointHits, SuffixSteps int64
	// AlignedRegions totals the region steps walked by alignment across
	// all absorbed verifications (see implicit.Result.AlignRegions).
	AlignedRegions int64
}

// HitRate returns the switched-run cache hit rate in [0, 1].
func (s Stats) HitRate() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

// Engine is a concurrent verification scheduler bound to one base
// implicit.Verifier (one failing execution). It implements
// implicit.SwitchedRunner, so the verifier's re-executions flow through
// the engine's cache even for direct Verify calls outside a batch.
//
// VerifyBatchContext must be called from one goroutine at a time (the locator's
// loop); the engine's internals — workers, cache, runner — handle their
// own synchronization.
type Engine struct {
	base    *implicit.Verifier
	clones  []*implicit.Verifier
	workers int
	cache   *RunCache
	filter  func(implicit.Request) bool
	ctx     context.Context

	progHash    uint64
	inputHash   uint64
	backend     interp.Backend
	backendName string

	rec *obs.Recorder

	batches, batched int64
	staticSkips      int64
	alignedRegions   int64
	runs             atomic.Int64
	cacheHits        atomic.Int64
	cacheMisses      atomic.Int64
	checkpointHits   atomic.Int64
	suffixSteps      atomic.Int64
}

// New builds an engine over base and installs itself as base's Runner.
// The base verifier's original trace gets its lazy ancestry index built
// here, before any worker can race on it.
func New(base *implicit.Verifier, cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{base: base, workers: w, filter: cfg.Filter, rec: cfg.Rec, ctx: cfg.Ctx}
	if e.ctx == nil {
		e.ctx = context.Background()
	}
	switch {
	case cfg.Cache != nil:
		e.cache = cfg.Cache
	case cfg.CacheSize >= 0:
		e.cache = NewRunCache(cfg.CacheSize)
	}
	e.progHash = hashString(base.C.Src)
	e.inputHash = hashInts(base.Input)
	e.backend = base.Backend
	if e.backend == nil {
		e.backend = backend.Default()
	}
	e.backendName = e.backend.Name()
	if base.Orig != nil {
		base.Orig.Ancestry()
	}
	base.Runner = e
	e.clones = make([]*implicit.Verifier, w)
	for i := range e.clones {
		e.clones[i] = base.Clone()
	}
	return e
}

// SwitchedRun implements implicit.SwitchedRunner: one switched
// re-execution, served from the cache when possible. Cached traces are
// published with their ancestry index pre-built so concurrent alignment
// against them is read-only.
//
// With a shared cache, a single-flight wait can hand this engine a run
// that was aborted by ANOTHER engine's context (cancellation results
// are never stored, only delivered to waiters). A cancelled result must
// not become this engine's verdict while its own context is live — that
// would poison the verdict and break shard-count determinism — so the
// lookup retries until it gets a real run or its own context dies.
func (e *Engine) SwitchedRun(pred trace.Instance, budget int) *interp.Result {
	for {
		res := e.switchedRunOnce(pred, budget)
		if !interp.IsCancellation(res.Err) || e.ctx.Err() != nil {
			return res
		}
	}
}

func (e *Engine) switchedRunOnce(pred trace.Instance, budget int) *interp.Result {
	if e.cache == nil {
		return e.runSwitched(pred, budget)
	}
	key := RunKey{Prog: e.progHash, Input: e.inputHash, Backend: e.backendName, Pred: pred, Budget: budget}
	res, hit := e.cache.GetOrRun(key, func() *interp.Result {
		r := e.runSwitched(pred, budget)
		if r.Trace != nil {
			r.Trace.Ancestry()
		}
		return r
	})
	if hit {
		e.cacheHits.Add(1)
	} else {
		e.cacheMisses.Add(1)
	}
	return res
}

// runSwitched performs one switched re-execution, forking from the
// failing run's checkpoint store when the base verifier carries one.
// Forked results are byte-identical to full runs (the
// Backend.RunSwitchedFrom contract), so callers and the RunCache cannot
// tell the difference — only the CheckpointHits/SuffixSteps counters
// record that the shortcut was taken.
func (e *Engine) runSwitched(pred trace.Instance, budget int) *interp.Result {
	e.runs.Add(1)
	r := implicit.RunSwitchedFrom(e.ctx, e.backend, e.base.C, e.base.Input, e.base.Checkpoints, e.base.Orig, pred, budget)
	if r.ResumedAt > 0 {
		e.checkpointHits.Add(1)
		e.suffixSteps.Add(int64(r.Steps - r.ResumedAt))
	}
	return r
}

// VerifyBatchContext verifies reqs and returns their verdicts in request
// order. The expensive part — switched re-execution plus alignment —
// runs on the worker pool, deduplicated per memo key and per switched
// predicate; the results are then absorbed into the base verifier
// sequentially in request order, so its log, counters and memo evolve
// exactly as if the requests had been verified one by one.
//
// ctx (nil = the engine's configured context) bounds the batch: on
// cancellation the workers drain, NOTHING is absorbed — a half-absorbed
// batch would leave wrong NOT_ID verdicts in the memo and log — and the
// error wraps interp.ErrDeadline/ErrCanceled. ctx should equal or derive
// from Config.Ctx so the workers' interpreter runs observe the same
// cancellation.
func (e *Engine) VerifyBatchContext(ctx context.Context, reqs []implicit.Request) ([]implicit.Verdict, error) {
	if ctx == nil {
		ctx = e.ctx
	}
	verdicts := make([]implicit.Verdict, len(reqs))
	if len(reqs) == 0 {
		return verdicts, nil
	}
	if err := ctx.Err(); err != nil {
		return verdicts, fmt.Errorf("verification batch aborted: %w", interp.CtxErr(err))
	}
	e.batches++
	e.batched += int64(len(reqs))

	var before Stats
	if e.rec.Enabled() {
		before = e.Stats()
		e.rec.Begin("verify_batch", "reqs", strconv.Itoa(len(reqs)))
	}

	// Plan: one job per distinct not-yet-memoized key, at its first
	// occurrence; duplicates resolve through the memo during absorption.
	results := make([]*implicit.Result, len(reqs))
	seen := map[implicit.MemoKey]bool{}
	var jobs []int
	for i, req := range reqs {
		if _, ok := e.base.Memoized(req); ok {
			continue
		}
		key := e.base.MemoKey(req)
		if seen[key] {
			continue
		}
		seen[key] = true
		if e.filter != nil && e.filter(req) {
			// Statically provable NOT_ID: synthesize the result the
			// switched run would have produced and skip the run. It is
			// absorbed below in request order like any worker result.
			results[i] = &implicit.Result{Verdict: implicit.NotID, UPrime: -1, OPrime: -1}
			e.staticSkips++
			continue
		}
		jobs = append(jobs, i)
	}

	if n := len(jobs); n > 1 && e.workers > 1 {
		w := e.workers
		if w > n {
			w = n
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func(cl *implicit.Verifier) {
				defer wg.Done()
				for {
					// Stop claiming jobs once the batch is cancelled; the
					// job in flight aborts on the interpreter's own ctx
					// checkpoints, so the pool drains promptly and
					// wg.Wait below never leaks a goroutine.
					if ctx.Err() != nil {
						return
					}
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					results[jobs[i]] = cl.VerifyDetailed(reqs[jobs[i]])
				}
			}(e.clones[k])
		}
		wg.Wait()
	} else {
		for _, idx := range jobs {
			if ctx.Err() != nil {
				break
			}
			results[idx] = e.clones[0].VerifyDetailed(reqs[idx])
		}
	}

	if err := ctx.Err(); err != nil {
		// Cancelled mid-batch: the worker results may include runs that
		// were aborted by the context and would absorb as spurious NOT_ID
		// verdicts. Discard the whole batch — the verdicts computed so far
		// are returned unabsorbed — and surface the cancellation. The span
		// is still closed so a journal taken during cancellation validates.
		if e.rec.Enabled() {
			e.rec.End("verify_batch", int64(len(reqs)))
		}
		return verdicts, fmt.Errorf("verification batch aborted: %w", interp.CtxErr(err))
	}

	// Absorption is sequential and in request order, so everything
	// emitted below — switched_run marks, the verifier's verdict marks
	// from Absorb, the counter deltas — lands in a deterministic order
	// no matter how the workers interleaved above.
	for i, req := range reqs {
		switch {
		case results[i] != nil:
			res := results[i]
			e.alignedRegions += int64(res.AlignRegions)
			if e.rec.Enabled() && res.Switched != nil {
				e.rec.Mark("switched_run", int64(res.Switched.Steps),
					"pred", e.base.Orig.At(req.Pred).Inst.String())
			}
			verdicts[i] = e.base.Absorb(req, res)
		default:
			// Memoized before the batch, or a duplicate absorbed at its
			// first occurrence above; Verify resolves it from the memo
			// (and, failing that, verifies inline as a safety net).
			verdicts[i] = e.base.Verify(req)
		}
	}

	if e.rec.Enabled() {
		// Per-batch counter deltas. These totals are deterministic even
		// though individual lookups race: within a batch the misses are
		// exactly the distinct uncached run keys (single-flight) and the
		// rest are hits, regardless of worker interleaving.
		after := e.Stats()
		for _, c := range []struct {
			name string
			d    int64
		}{
			{"switched_runs", after.Runs - before.Runs},
			{"cache_hits", after.CacheHits - before.CacheHits},
			{"cache_misses", after.CacheMisses - before.CacheMisses},
			{"cache_evictions", after.CacheEvictions - before.CacheEvictions},
			{"static_skips", after.StaticSkips - before.StaticSkips},
			{"aligned_regions", after.AlignedRegions - before.AlignedRegions},
		} {
			if c.d != 0 {
				e.rec.Count(c.name, c.d)
			}
		}
		e.rec.End("verify_batch", int64(len(reqs)))
	}
	return verdicts, nil
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Workers: e.workers,
		Batches: e.batches, Batched: e.batched,
		StaticSkips:    e.staticSkips,
		AlignedRegions: e.alignedRegions,
		Runs:           e.runs.Load(),
		CacheHits:      e.cacheHits.Load(), CacheMisses: e.cacheMisses.Load(),
		CheckpointHits: e.checkpointHits.Load(), SuffixSteps: e.suffixSteps.Load(),
	}
	if e.cache != nil {
		s.CacheEvictions = e.cache.Stats().Evictions
	}
	return s
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func hashInts(vs []int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vs {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
