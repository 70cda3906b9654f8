package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"eol/internal/interp"
	"eol/internal/obs"
	"eol/internal/verifyengine"
)

// cancelOn cancels a context the first time the named span begins. Core
// emits events only from the locator's own goroutine (never from
// verification workers), so the cancellation lands at a deterministic
// program point.
type cancelOn struct {
	span   string
	cancel context.CancelFunc
	fired  bool
	events []obs.Event
}

func (c *cancelOn) Event(e obs.Event) {
	c.events = append(c.events, e)
	if !c.fired && e.Kind == obs.KindBegin && e.Name == c.span {
		c.fired = true
		c.cancel()
	}
}

// checkBalanced verifies every begun span was ended — the journal
// contract that must hold even for aborted runs.
func checkBalanced(t *testing.T, events []obs.Event) {
	t.Helper()
	var stack []string
	for _, e := range events {
		switch e.Kind {
		case obs.KindBegin:
			stack = append(stack, e.Name)
		case obs.KindEnd:
			if len(stack) == 0 || stack[len(stack)-1] != e.Name {
				t.Fatalf("unbalanced journal: end %q with open spans %v", e.Name, stack)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if len(stack) != 0 {
		t.Fatalf("unbalanced journal: spans never ended: %v", stack)
	}
}

// cancelAtSpan runs a fig1 localization that cancels itself when the
// given span begins, and checks the abort contract: an error matching
// ErrCanceled, a non-nil partial report, and a balanced journal.
func cancelAtSpan(t *testing.T, span string, workers int) (*Report, *cancelOn) {
	t.Helper()
	spec, _ := fig1Spec(t)
	spec.VerifyWorkers = workers
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co := &cancelOn{span: span, cancel: cancel}
	spec.Observer = co
	rep, err := LocateContext(ctx, spec)
	if !co.fired {
		t.Fatalf("span %q never began; cannot test cancellation there", span)
	}
	if err == nil {
		t.Fatalf("cancel at %q: Locate succeeded, want cancellation error", span)
	}
	if !errors.Is(err, interp.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel at %q: error %v does not match ErrCanceled/context.Canceled", span, err)
	}
	if ErrClass(err) != "canceled" {
		t.Fatalf("cancel at %q: ErrClass = %q, want canceled", span, ErrClass(err))
	}
	if rep == nil {
		t.Fatalf("cancel at %q: nil report, want partial report", span)
	}
	if rep.Located {
		t.Fatalf("cancel at %q: aborted run claims Located", span)
	}
	checkBalanced(t, co.events)
	return rep, co
}

// TestCancelDuringSlicing cancels while the initial pruning pass runs:
// the first reprune span begins right after slicing.
func TestCancelDuringSlicing(t *testing.T) {
	rep, _ := cancelAtSpan(t, "reprune", 1)
	// Nothing has been verified yet at that point.
	if rep.Stats.Verifications != 0 {
		t.Errorf("Verifications = %d before any expansion, want 0", rep.Stats.Verifications)
	}
}

// TestCancelDuringVerifyBatch cancels as a verification batch starts,
// with a parallel worker pool: in-flight switched runs must drain, the
// batch must be discarded whole, and the partial stats must still carry
// the pre-batch counters.
func TestCancelDuringVerifyBatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rep, _ := cancelAtSpan(t, "verify_batch", workers)
		if rep.Stats.Verifications != 0 {
			t.Errorf("workers=%d: aborted batch absorbed %d verifications, want 0",
				workers, rep.Stats.Verifications)
		}
	}
}

// TestCancelDuringSwitchedRun cancels mid-localization at the iteration
// boundary.
func TestCancelDuringSwitchedRun(t *testing.T) {
	cancelAtSpan(t, "iteration", 2)
}

// TestDeadlinePreExpired runs Locate under an already-expired deadline:
// the failing run aborts before executing a single statement and the
// error matches both ErrDeadline and context.DeadlineExceeded.
func TestDeadlinePreExpired(t *testing.T) {
	spec, _ := fig1Spec(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	rep, err := LocateContext(ctx, spec)
	if err == nil {
		t.Fatal("Locate met an expired deadline, want error")
	}
	if !errors.Is(err, interp.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not match ErrDeadline/context.DeadlineExceeded", err)
	}
	if ErrClass(err) != "deadline" {
		t.Fatalf("ErrClass = %q, want deadline", ErrClass(err))
	}
	if rep == nil {
		t.Fatal("nil report, want empty partial report")
	}
}

// TestDeadlineDuringRun gives a long-running failing program a few
// milliseconds: the interpreter's amortized context checkpoint must
// stop it mid-run with partial step accounting.
func TestDeadlineDuringRun(t *testing.T) {
	c := mustCompileT(t, `
func main() {
    var x = read();
    var i = 0;
    while (i < 100000000) {
        i = i + 1;
    }
    print(x);
}
`)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	spec := &Spec{Program: c, Input: []int64{1}, Expected: []int64{2}}
	rep, err := LocateContext(ctx, spec)
	if !errors.Is(err, interp.ErrDeadline) {
		t.Fatalf("error %v does not match ErrDeadline", err)
	}
	if rep == nil {
		t.Fatal("nil report, want partial report")
	}
}

// TestCanceledLocateLeaksNoGoroutines runs many canceled parallel
// localizations and checks the goroutine count settles back: worker
// pools must drain even when their batch is aborted.
func TestCanceledLocateLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		spec, _ := fig1Spec(t)
		spec.VerifyWorkers = 4
		ctx, cancel := context.WithCancel(context.Background())
		co := &cancelOn{span: "verify_batch", cancel: cancel}
		spec.Observer = co
		if _, err := LocateContext(ctx, spec); err == nil {
			t.Fatal("expected cancellation error")
		}
		cancel()
	}
	// Give drained workers a moment to exit.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after canceled runs", before, runtime.NumGoroutine())
}

// TestCanceledLocateLeavesSharedCacheClean cancels a parallel
// localization at its first verification batch while it uses a shared
// run cache. Its workers must drain, and whatever it left in the cache
// must be real runs only: a fresh localization over the same cache
// reproduces the uncached baseline verdict for verdict.
func TestCanceledLocateLeavesSharedCacheClean(t *testing.T) {
	baseSpec, _ := fig1Spec(t)
	baseSpec.VerifyCacheSize = -1
	want, err := Locate(baseSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Located {
		t.Fatal("baseline did not locate")
	}

	cache := verifyengine.NewRunCache(0)
	before := runtime.NumGoroutine()
	spec, _ := fig1Spec(t)
	spec.VerifyWorkers = 4
	spec.VerifyCache = cache
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co := &cancelOn{span: "verify_batch", cancel: cancel}
	spec.Observer = co
	if _, err := LocateContext(ctx, spec); !errors.Is(err, interp.ErrCanceled) {
		t.Fatalf("error %v does not match ErrCanceled", err)
	}
	checkBalanced(t, co.events)

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after the canceled run", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	spec2, _ := fig1Spec(t)
	spec2.VerifyCache = cache
	got, err := Locate(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Located != want.Located || got.RootEntry != want.RootEntry {
		t.Errorf("after the canceled run: located %v@%d, want %v@%d",
			got.Located, got.RootEntry, want.Located, want.RootEntry)
	}
	if got.Stats.Verifications != want.Stats.Verifications ||
		got.Stats.UserPrunings != want.Stats.UserPrunings ||
		got.Stats.Iterations != want.Stats.Iterations {
		t.Errorf("after the canceled run: counters (%d %d %d), want (%d %d %d)",
			got.Stats.Verifications, got.Stats.UserPrunings, got.Stats.Iterations,
			want.Stats.Verifications, want.Stats.UserPrunings, want.Stats.Iterations)
	}
	if !reflect.DeepEqual(got.VerifyLog, want.VerifyLog) {
		t.Errorf("after the canceled run: VerifyLog diverged\n got: %v\nwant: %v",
			got.VerifyLog, want.VerifyLog)
	}
}

func mustCompileT(t *testing.T, src string) *interp.Compiled {
	t.Helper()
	c, err := interp.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}
