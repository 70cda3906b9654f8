// Package corpus runs many localization subjects — (faulty program,
// failing input, expected output) triples — concurrently over a bounded
// pool of localization sessions, sharing compiled programs and the
// switched-run cache across subjects of the same program family.
//
// It is the batch driver behind cmd/eolcorpus and eol.LocateCorpus.
// Subjects come from a Manifest (see manifest.go and docs/CORPUS.md);
// Run shards them over Options.Shards goroutines, bounds each with a
// per-subject deadline, and returns per-subject reports in manifest
// order. Cancellation is cooperative end-to-end: the corpus context
// flows through core.LocateContext into the verification workers and
// the interpreter's step loop, so an expired subject stops mid-run and
// still yields its partial Table-3 counters.
//
// # Determinism
//
// The per-subject localization counters (the paper's Table 3 terms plus
// edge counts and located) are pure functions of the subject: a verdict
// served from the shared cache is byte-identical to a fresh switched
// re-execution, and verdict absorption inside core.Locate is
// rank-ordered regardless of scheduling. The journal Run emits — and
// the default eolcorpus JSON — therefore contains only those fields and
// is byte-identical for any shard count. Wall-clock timings, shard
// assignment, and cache hit/miss splits DO depend on scheduling; they
// are reported on the side (Result.Elapsed, SubjectResult.Shard,
// Result.Cache) and never enter the journal.
package corpus

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eol/internal/backend"
	"eol/internal/confidence"
	"eol/internal/core"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/obs"
	"eol/internal/oracle"
	"eol/internal/verifyengine"
)

// Options configures a corpus run.
type Options struct {
	// Shards is the number of subjects localized concurrently
	// (0 = GOMAXPROCS). Shard count never changes results — only
	// wall-clock time and the scheduling-dependent side counters.
	Shards int
	// Deadline bounds each subject's wall clock when the manifest sets
	// none (0 = unbounded).
	Deadline time.Duration
	// FailFast cancels the remaining subjects after the first subject
	// error. Subjects canceled this way report class "canceled".
	FailFast bool
	// VerifyWorkers sizes each session's verification pool
	// (0 = GOMAXPROCS). With many shards, 1 is usually right: the
	// corpus already saturates the cores subject-wise.
	VerifyWorkers int
	// CacheSize bounds the shared switched-run cache (0 = default,
	// negative = disable caching entirely).
	CacheSize int
	// Backend names the execution backend for every subject ("" = the
	// VM). Only the reference oracle sets it: eolbench's per-family
	// oracle pass and the tree/VM A/B tests ("tree"). Backends are
	// byte-identical, so the corpus JSON and journal never depend on —
	// or record — the choice; that blindness is what lets
	// TestTreeBackendAB compare tree and VM outputs byte for byte.
	Backend string
	// Shared, if non-nil, supplies externally owned warm state — the
	// compile cache and the switched-run cache — that outlives this Run
	// call. Resident drivers (internal/serve) keep one Shared across
	// requests so later runs of the same program family hit warm
	// caches. When set, its run cache (or its lack of one, see
	// NewShared) replaces the cache CacheSize would size. Per-subject
	// results are identical warm or cold.
	Shared *Shared
	// Observer, if non-nil, receives the corpus journal: one corpus
	// span containing a subject span per subject (manifest order) with
	// the deterministic per-subject gauges, then corpus totals. Emitted
	// post-run from a single goroutine; see package comment for what is
	// deliberately excluded.
	Observer obs.Observer
}

// SubjectResult is the outcome of one subject.
type SubjectResult struct {
	// Name is the subject's manifest name.
	Name string
	// Report is core.Locate's report: non-nil, partial when Err is set.
	Report *core.Report
	// Err is the subject's terminal error (nil on completion); Class is
	// core.ErrClass(Err).
	Err   error
	Class string
	// Elapsed and Shard describe scheduling: wall clock spent and which
	// shard ran the subject. Both vary run to run.
	Elapsed time.Duration
	Shard   int
}

// Located reports whether the subject completed and located its root
// cause.
func (r *SubjectResult) Located() bool {
	return r.Err == nil && r.Report != nil && r.Report.Located
}

// Result is the outcome of a corpus run.
type Result struct {
	// Subjects holds one entry per manifest subject, in manifest order.
	Subjects []SubjectResult
	// Located counts subjects that located their root cause; Failed
	// counts subjects with a terminal error.
	Located int
	Failed  int
	// Elapsed is the whole run's wall clock (scheduling-dependent).
	Elapsed time.Duration
	// Cache snapshots the shared switched-run cache (zero value when
	// sharing is off). Hit/miss splits are scheduling-dependent.
	Cache verifyengine.CacheStats
	// SharedCache reports whether one cache served all subjects.
	SharedCache bool
}

// compileEntry dedupes compilation: all subjects referencing the same
// source text share one compile (and hence one *interp.Compiled, which
// is what lets the switched-run cache key match across subjects).
type compileEntry struct {
	once sync.Once
	c    *interp.Compiled
	err  error
}

type compileCache struct {
	mu sync.Mutex
	m  map[string]*compileEntry
}

func (cc *compileCache) get(src string) (*interp.Compiled, error) {
	cc.mu.Lock()
	e, ok := cc.m[src]
	if !ok {
		e = &compileEntry{}
		cc.m[src] = e
	}
	cc.mu.Unlock()
	e.once.Do(func() { e.c, e.err = interp.Compile(src) })
	return e.c, e.err
}

func (cc *compileCache) len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.m)
}

// Shared is the warm state a resident driver keeps across Run calls:
// the content-keyed compile cache and the cross-request switched-run
// cache. Both are safe for concurrent use, so one Shared may serve
// overlapping Run calls. A batch Run without Options.Shared builds the
// equivalent state privately and discards it afterwards; the only
// difference warm state makes is wall-clock time and the cache hit/miss
// split — never results.
type Shared struct {
	runs    *verifyengine.RunCache // nil when run caching is disabled
	compile *compileCache
}

// NewShared builds warm state with a switched-run cache of cacheSize
// entries (0 = verifyengine.DefaultCacheSize, negative = no shared run
// cache).
func NewShared(cacheSize int) *Shared {
	s := &Shared{compile: &compileCache{m: map[string]*compileEntry{}}}
	if cacheSize >= 0 {
		s.runs = verifyengine.NewRunCache(cacheSize)
	}
	return s
}

// RunCacheStats snapshots the shared switched-run cache counters
// (zero value when the run cache is disabled). Cumulative across every
// Run call that used this Shared.
func (s *Shared) RunCacheStats() verifyengine.CacheStats {
	if s.runs == nil {
		return verifyengine.CacheStats{}
	}
	return s.runs.Stats()
}

// CompiledPrograms reports how many distinct program texts the compile
// cache holds.
func (s *Shared) CompiledPrograms() int { return s.compile.len() }

// Run localizes every subject of m under ctx and opts. The returned
// Result is non-nil unless the manifest itself is invalid; individual
// subject failures (deadline, budget, not located) land in their
// SubjectResult, not in Run's error. Run's own error is non-nil only
// for an invalid manifest.
func Run(ctx context.Context, m *Manifest, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > len(m.Subjects) {
		shards = len(m.Subjects)
	}

	var shared *verifyengine.RunCache
	var cc *compileCache
	if opts.Shared != nil {
		// Resident mode: warm state owned by the caller, reused across
		// Run calls.
		shared, cc = opts.Shared.runs, opts.Shared.compile
	} else {
		if opts.CacheSize >= 0 {
			shared = verifyengine.NewRunCache(opts.CacheSize)
		}
		cc = &compileCache{m: map[string]*compileEntry{}}
	}

	runCtx := ctx
	cancel := func() {}
	if opts.FailFast {
		runCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	start := time.Now()
	res := &Result{
		Subjects:    make([]SubjectResult, len(m.Subjects)),
		SharedCache: shared != nil,
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for shard := 0; shard < shards; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(m.Subjects) {
					return
				}
				res.Subjects[i] = runSubject(runCtx, &m.Subjects[i], shard, shared, cc, &opts)
				if opts.FailFast && res.Subjects[i].Err != nil {
					cancel()
				}
			}
		}(shard)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)

	for i := range res.Subjects {
		switch {
		case res.Subjects[i].Located():
			res.Located++
		case res.Subjects[i].Err != nil:
			res.Failed++
		}
	}
	if shared != nil {
		res.Cache = shared.Stats()
	}
	emitJournal(opts.Observer, res)
	return res, nil
}

// runSubject performs one localization session end to end.
func runSubject(ctx context.Context, s *Subject, shard int, shared *verifyengine.RunCache, cc *compileCache, opts *Options) SubjectResult {
	start := time.Now()
	sr := SubjectResult{Name: s.Name, Shard: shard, Report: &core.Report{}}
	fail := func(err error) SubjectResult {
		sr.Err = err
		sr.Class = core.ErrClass(err)
		sr.Elapsed = time.Since(start)
		return sr
	}

	faulty, err := cc.get(s.Source)
	if err != nil {
		return fail(fmt.Errorf("compile: %w", err))
	}

	bk, err := backend.Lookup(opts.Backend)
	if err != nil {
		return fail(err)
	}

	sctx := ctx
	if d := s.Deadline.D(); d == 0 && opts.Deadline > 0 {
		s2 := *s
		s2.Deadline = Duration(opts.Deadline)
		s = &s2
	}
	if d := s.Deadline.D(); d > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	spec := &core.Spec{
		Program:         faulty,
		Backend:         bk,
		Input:           s.Input,
		Expected:        s.Expected,
		MaxIterations:   s.MaxIterations,
		PathMode:        s.PathMode,
		CrossFunctionPD: s.CrossFunctionPD,
		VerifyWorkers:   opts.VerifyWorkers,
		VerifyCacheSize: -1, // the shared cache, if any, is the only one
		VerifyCache:     shared,
	}

	if s.CorrectSource != "" {
		correct, err := cc.get(s.CorrectSource)
		if err != nil {
			return fail(fmt.Errorf("compile correct: %w", err))
		}
		corRun := bk.Run(correct, interp.Options{Input: s.Input, BuildTrace: true, Ctx: sctx})
		if corRun.Err != nil {
			return fail(fmt.Errorf("correct run: %w", corRun.Err))
		}
		spec.Oracle = &oracle.StateOracle{Correct: corRun.Trace}
		if len(spec.Expected) == 0 {
			spec.Expected = corRun.OutputValues()
		}
		// The correct run doubles as a value profile for confidence
		// analysis, as in the bench harness.
		prof := confidence.NewProfile()
		prof.AddTrace(corRun.Trace)
		spec.Profile = prof
	}

	if s.RootFrag != "" {
		for _, st := range faulty.Info.Stmts {
			if strings.Contains(ast.StmtString(st), s.RootFrag) {
				spec.RootCause = append(spec.RootCause, st.ID())
			}
		}
		if len(spec.RootCause) == 0 {
			return fail(fmt.Errorf("no statement matches root fragment %q", s.RootFrag))
		}
	}

	rep, err := core.LocateContext(sctx, spec)
	if rep != nil {
		sr.Report = rep
	}
	if err != nil {
		return fail(err)
	}
	if len(spec.RootCause) > 0 && !rep.Located {
		return fail(core.ErrNotLocated)
	}
	sr.Elapsed = time.Since(start)
	return sr
}

// subjectGauges are the per-subject journal gauges: the scheduling-
// independent subset of obs.Stats (see the package comment). Fixed
// order; append only.
var subjectGauges = []struct {
	name string
	get  func(*obs.Stats) int64
}{
	{"user_prunings", func(s *obs.Stats) int64 { return int64(s.UserPrunings) }},
	{"verifications", func(s *obs.Stats) int64 { return int64(s.Verifications) }},
	{"iterations", func(s *obs.Stats) int64 { return int64(s.Iterations) }},
	{"expanded_edges", func(s *obs.Stats) int64 { return int64(s.ExpandedEdges) }},
	{"strong_edges", func(s *obs.Stats) int64 { return int64(s.StrongEdges) }},
	{"implicit_edges", func(s *obs.Stats) int64 { return int64(s.ImplicitEdges) }},
}

// emitJournal writes the corpus journal: deterministic for any shard
// count because it is emitted after the run, in manifest order, from
// one goroutine, and carries only scheduling-independent fields.
func emitJournal(o obs.Observer, res *Result) {
	rec := obs.NewRecorder(o)
	if !rec.Enabled() {
		return
	}
	rec.Begin("corpus")
	for i := range res.Subjects {
		sr := &res.Subjects[i]
		rec.Begin("subject", "name", sr.Name)
		var st *obs.Stats
		if sr.Report != nil {
			st = &sr.Report.Stats
		} else {
			st = &obs.Stats{}
		}
		for _, g := range subjectGauges {
			rec.Gauge(g.name, g.get(st))
		}
		located := int64(0)
		if sr.Located() {
			located = 1
		}
		rec.Gauge("located", located)
		if sr.Err != nil {
			rec.Mark("subject_error", 0, "class", sr.Class)
		}
		rec.End("subject", located)
	}
	rec.Gauge("corpus_subjects", int64(len(res.Subjects)))
	rec.Gauge("corpus_located", int64(res.Located))
	rec.Gauge("corpus_failed", int64(res.Failed))
	rec.End("corpus", int64(res.Located))
}
