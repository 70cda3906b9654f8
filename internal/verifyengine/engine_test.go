package verifyengine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"eol/internal/implicit"
	"eol/internal/interp"
	"eol/internal/slicing"
	"eol/internal/trace"
)

// fixture builds a verifier over a failing run of a program with several
// verifiable potential dependences: the guarded writes are omitted, so
// every later use potentially depends on the same predicate instance.
func fixture(t *testing.T) (*implicit.Verifier, []implicit.Request) {
	t.Helper()
	src := `
func main() {
    var cond = read() * 0;   // ROOT CAUSE: should be read()
    var a = 1;
    var b = 1;
    var c = 1;
    if (cond) {
        a = 2;
        b = 2;
        c = 2;
    }
    print(a);
    print(b);
    print(c);
}`
	c, err := interp.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	input := []int64{1}
	run := interp.Run(c, interp.Options{Input: input, BuildTrace: true})
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	seq, _, ok := slicing.FirstWrongOutput(run.OutputValues(), []int64{2, 2, 2})
	if !ok {
		t.Fatal("no failure")
	}
	wrong := *run.Trace.OutputAt(seq)
	v := &implicit.Verifier{
		C: c, Input: input, Orig: run.Trace,
		WrongOut: wrong, Vexp: 2, HasVexp: true,
	}
	cx := slicing.NewContext(c, run.Trace)
	var reqs []implicit.Request
	for _, out := range []int{0, 1, 2} {
		u := run.Trace.OutputAt(out).Entry
		for _, pd := range cx.PotentialDeps(u) {
			reqs = append(reqs, implicit.Request{
				Pred: pd.Pred, Use: u, UseSym: pd.UseSym, UseElem: pd.UseElem,
			})
		}
	}
	if len(reqs) < 3 {
		t.Fatalf("fixture produced only %d requests", len(reqs))
	}
	return v, reqs
}

// sequentialBaseline verifies reqs one by one on a fresh engine-free
// verifier and returns its observable state.
func sequentialBaseline(t *testing.T, reqs []implicit.Request) ([]implicit.Verdict, *implicit.Verifier) {
	t.Helper()
	v, _ := fixture(t)
	var verdicts []implicit.Verdict
	for _, r := range reqs {
		verdicts = append(verdicts, v.Verify(r))
	}
	return verdicts, v
}

// verifyBatch runs one batch under a background context, failing the
// test on error.
func verifyBatch(t *testing.T, e *Engine, reqs []implicit.Request) []implicit.Verdict {
	t.Helper()
	verdicts, err := e.VerifyBatchContext(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	return verdicts
}

// TestBatchMatchesSequential: for every worker count and cache setting,
// VerifyBatchContext must produce the sequential path's verdicts, log order and
// verification count.
func TestBatchMatchesSequential(t *testing.T) {
	_, reqs := fixture(t)
	wantVerdicts, wantV := sequentialBaseline(t, reqs)

	for _, workers := range []int{1, 2, 8} {
		for _, cacheSize := range []int{-1, 0, 1} {
			name := fmt.Sprintf("workers=%d/cache=%d", workers, cacheSize)
			t.Run(name, func(t *testing.T) {
				base, reqs := fixture(t)
				e := New(base, Config{Workers: workers, CacheSize: cacheSize})
				got := verifyBatch(t, e, reqs)
				if !reflect.DeepEqual(got, wantVerdicts) {
					t.Errorf("verdicts = %v, want %v", got, wantVerdicts)
				}
				if base.Verifications != wantV.Verifications {
					t.Errorf("Verifications = %d, want %d", base.Verifications, wantV.Verifications)
				}
				if !reflect.DeepEqual(base.Log, wantV.Log) {
					t.Errorf("Log = %v, want %v", base.Log, wantV.Log)
				}
			})
		}
	}
}

// TestBatchDeduplicates: duplicate requests in one batch are verified
// once, like repeated Verify calls.
func TestBatchDeduplicates(t *testing.T) {
	base, reqs := fixture(t)
	e := New(base, Config{Workers: 4})
	doubled := append(append([]implicit.Request{}, reqs...), reqs...)
	got := verifyBatch(t, e, doubled)
	for i := range reqs {
		if got[i] != got[i+len(reqs)] {
			t.Errorf("req %d: duplicate verdict %v != %v", i, got[i], got[i+len(reqs)])
		}
	}
	if base.Verifications != len(base.Log) {
		t.Errorf("Verifications %d != logged %d", base.Verifications, len(base.Log))
	}
	if base.Verifications > len(reqs) {
		t.Errorf("duplicates re-verified: %d verifications for %d unique requests",
			base.Verifications, len(reqs))
	}
}

// TestRunCacheSharesExecutions: all requests hit the same switched
// predicate, so the cached engine must execute once per distinct
// predicate instance and serve the rest from the cache.
func TestRunCacheSharesExecutions(t *testing.T) {
	base, reqs := fixture(t)
	e := New(base, Config{Workers: 1, CacheSize: 0})
	verifyBatch(t, e, reqs)
	s := e.Stats()
	preds := map[int]bool{}
	for _, r := range reqs {
		preds[r.Pred] = true
	}
	if s.Runs != int64(len(preds)) {
		t.Errorf("Runs = %d, want %d (one per distinct predicate)", s.Runs, len(preds))
	}
	if s.CacheHits == 0 {
		t.Error("expected cache hits across uses of the same predicate")
	}
	if got := s.CacheHits + s.CacheMisses; got != int64(base.Verifications) {
		t.Errorf("lookups %d != verifications %d", got, base.Verifications)
	}
}

// TestSecondEngineHitsSharedCache: a shared RunCache serves a second
// localization of the same program/input without re-executing.
func TestSecondEngineHitsSharedCache(t *testing.T) {
	cache := NewRunCache(0)
	base1, reqs1 := fixture(t)
	e1 := New(base1, Config{Workers: 2, Cache: cache})
	verifyBatch(t, e1, reqs1)
	runsAfterFirst := e1.Stats().Runs

	base2, reqs2 := fixture(t)
	e2 := New(base2, Config{Workers: 2, Cache: cache})
	verifyBatch(t, e2, reqs2)
	if got := e2.Stats().Runs; got != 0 {
		t.Errorf("second engine performed %d runs, want 0 (cache shared)", got)
	}
	if runsAfterFirst == 0 {
		t.Error("first engine should have executed at least once")
	}
}

// TestRunCacheLRU: capacity 2 evicts the least recently used entry and
// counts it.
func TestRunCacheLRU(t *testing.T) {
	c := NewRunCache(2)
	mk := func(i int) RunKey { return RunKey{Pred: trace.Instance{Stmt: i, Occ: 1}} }
	run := func() *interp.Result { return &interp.Result{} }

	c.GetOrRun(mk(1), run)
	c.GetOrRun(mk(2), run)
	c.GetOrRun(mk(1), run) // touch 1: now 2 is LRU
	c.GetOrRun(mk(3), run) // evicts 2
	if _, hit := c.GetOrRun(mk(1), run); !hit {
		t.Error("entry 1 should have survived (recently used)")
	}
	if _, hit := c.GetOrRun(mk(2), run); hit {
		t.Error("entry 2 should have been evicted")
	}
	s := c.Stats()
	if s.Evictions < 1 {
		t.Errorf("evictions = %d, want >= 1", s.Evictions)
	}
	if s.Len > 2 {
		t.Errorf("len = %d, want <= cap 2", s.Len)
	}
}

// TestRunCacheSingleFlight: concurrent misses on one key execute once.
func TestRunCacheSingleFlight(t *testing.T) {
	c := NewRunCache(0)
	var mu sync.Mutex
	runs := 0
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.GetOrRun(RunKey{Pred: trace.Instance{Stmt: 7, Occ: 1}}, func() *interp.Result {
				mu.Lock()
				runs++
				mu.Unlock()
				return &interp.Result{}
			})
		}()
	}
	wg.Wait()
	if runs != 1 {
		t.Errorf("run executed %d times, want 1", runs)
	}
	if s := c.Stats(); s.Hits != 15 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 15 hits / 1 miss", s)
	}
}

// waitStats polls c until its counters reach misses and hits. A miss is
// counted when a lookup starts executing and a hit when a lookup joins
// an in-flight run, so the tests order goroutines by these counters.
func waitStats(t *testing.T, c *RunCache, misses, hits int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s := c.Stats(); s.Misses < misses || s.Hits < hits; s = c.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("cache stats %+v never reached %d misses, %d hits", s, misses, hits)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunCacheDoesNotStoreCanceledRun: a run aborted by its caller's
// context is handed to the waiters that joined it, but never stored —
// the key stays uncached and the next lookup executes again.
func TestRunCacheDoesNotStoreCanceledRun(t *testing.T) {
	for _, cause := range []error{interp.ErrCanceled, interp.ErrDeadline} {
		c := NewRunCache(0)
		key := RunKey{Pred: trace.Instance{Stmt: 3, Occ: 1}}
		aborted := &interp.Result{Err: cause}
		release := make(chan struct{})
		type lookup struct {
			res *interp.Result
			hit bool
		}
		owner, waiter := make(chan lookup), make(chan lookup)
		go func() {
			res, hit := c.GetOrRun(key, func() *interp.Result {
				<-release
				return aborted
			})
			owner <- lookup{res, hit}
		}()
		waitStats(t, c, 1, 0)
		go func() {
			res, hit := c.GetOrRun(key, func() *interp.Result {
				t.Error("waiter executed instead of joining the in-flight run")
				return nil
			})
			waiter <- lookup{res, hit}
		}()
		waitStats(t, c, 1, 1)
		close(release)
		if o := <-owner; o.res != aborted || o.hit {
			t.Errorf("%v: owner got %+v, want the aborted run as a miss", cause, o)
		}
		if w := <-waiter; w.res != aborted || !w.hit {
			t.Errorf("%v: waiter got %+v, want the aborted run as a hit", cause, w)
		}
		if s := c.Stats(); s.Len != 0 {
			t.Errorf("%v: aborted run was stored: %+v", cause, s)
		}
		fresh := &interp.Result{}
		if res, hit := c.GetOrRun(key, func() *interp.Result { return fresh }); res != fresh || hit {
			t.Errorf("%v: next lookup got %p hit=%v, want a fresh execution %p", cause, res, hit, fresh)
		}
		if s := c.Stats(); s.Len != 1 || s.Misses != 2 {
			t.Errorf("%v: after re-execution: %+v, want 1 entry and 2 misses", cause, s)
		}
	}
}

// TestSwitchedRunRetriesForeignCancellation: with a shared cache, a
// single-flight wait can hand an engine a run that ANOTHER engine's
// context aborted. SwitchedRun must not adopt it while its own context
// is live: it retries, executes the run itself and stores the real
// result.
func TestSwitchedRunRetriesForeignCancellation(t *testing.T) {
	cache := NewRunCache(0)
	base, reqs := fixture(t)
	e := New(base, Config{Workers: 1, Cache: cache})
	pred := base.Orig.At(reqs[0].Pred).Inst
	budget := 10*base.Orig.Len() + 1000
	key := RunKey{Prog: e.progHash, Input: e.inputHash, Backend: e.backendName, Pred: pred, Budget: budget}

	// The other engine's run: in flight under key until this engine has
	// joined it, then aborted by that engine's context.
	release := make(chan struct{})
	foreign := make(chan struct{})
	go func() {
		defer close(foreign)
		cache.GetOrRun(key, func() *interp.Result {
			<-release
			return &interp.Result{Err: interp.ErrCanceled}
		})
	}()
	waitStats(t, cache, 1, 0)
	done := make(chan *interp.Result)
	go func() { done <- e.SwitchedRun(pred, budget) }()
	waitStats(t, cache, 1, 1)
	close(release)
	<-foreign

	var res *interp.Result
	select {
	case res = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SwitchedRun never returned: is a canceled run being served from the cache?")
	}
	if res.Err != nil {
		t.Fatalf("SwitchedRun adopted the foreign cancellation: %v", res.Err)
	}
	if s := e.Stats(); s.Runs != 1 || s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Errorf("engine stats = %+v, want 1 run, 1 hit (the aborted wait), 1 miss (the retry)", s)
	}
	if got, hit := cache.GetOrRun(key, func() *interp.Result { return nil }); !hit || got != res {
		t.Errorf("retry result not stored: hit=%v", hit)
	}
}

// TestHitRate sanity-checks the Stats helper.
func TestHitRate(t *testing.T) {
	if r := (Stats{}).HitRate(); r != 0 {
		t.Errorf("empty hit rate = %v", r)
	}
	if r := (Stats{CacheHits: 3, CacheMisses: 1}).HitRate(); r != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", r)
	}
}
