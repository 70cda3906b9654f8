package vm

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"eol/internal/cfg"
	"eol/internal/interp"
	"eol/internal/trace"
)

// The checkpoint store is checked against the tree-walker's full run,
// the reference oracle: a fork must reproduce, byte for byte, what a run
// from the start produces.

// ckSrc exercises every construct checkpointing interacts with: globals,
// arrays (shared copy-on-write storage), helper calls (frames that are
// not capture points), nested while/for loops, else-if chains, break,
// and interleaved output.
const ckSrc = `
var acc[4];
var total;
func bump(i, v) {
    var j = i % 4;
    acc[j] += v;
    total += v;
    return acc[j];
}
func main() {
    var n = 0;
    while (!eof()) {
        var v = read();
        if (v % 3 == 0) {
            bump(n, v);
        } else if (v % 3 == 1) {
            for (var k = 0; k < v % 5; k++) {
                bump(k, 1);
            }
        } else {
            if (v > 50) { break; }
            total -= 1;
        }
        n++;
        print(n, " ", total);
    }
    print(total, " ", acc[0], " ", acc[1], " ", acc[2], " ", acc[3]);
}`

func ckInput() []int64 {
	var in []int64
	for i := 0; i < 40; i++ {
		in = append(in, int64((i*7+3)%47))
	}
	return in
}

// capturedRun runs src on the VM with a store attached and returns both.
func capturedRun(t *testing.T, src string, input []int64, max int) (*interp.Compiled, *interp.Result, *Store) {
	t.Helper()
	c := interp.MustCompile(src)
	st := NewStore(max)
	r := Backend.Run(c, interp.Options{Input: input, BuildTrace: true, Checkpoints: st})
	if r.Err != nil {
		t.Fatalf("captured run: %v", r.Err)
	}
	return c, r, st
}

// predicateInstances lists the trace indices of all predicate entries.
func predicateInstances(tr *trace.Trace) []int {
	var preds []int
	for i := 0; i < tr.Len(); i++ {
		if tr.At(i).Branch != cfg.None {
			preds = append(preds, i)
		}
	}
	return preds
}

func switchAt(tr *trace.Trace, idx int) *interp.SwitchPlan {
	inst := tr.At(idx).Inst
	return &interp.SwitchPlan{Stmt: inst.Stmt, Occ: inst.Occ}
}

// treeFull is the oracle: the tree-walker's traced full run under opts.
func treeFull(c *interp.Compiled, opts interp.Options) *interp.Result {
	opts.BuildTrace = true
	return interp.Tree.Run(c, opts)
}

// compareFork checks a forked run against the oracle's full run. The
// fork's ResumedAt is the only field allowed to differ.
func compareFork(t *testing.T, want, got *interp.Result, resumedAt int) {
	t.Helper()
	if got.ResumedAt != resumedAt {
		t.Fatalf("ResumedAt = %d, want %d", got.ResumedAt, resumedAt)
	}
	want.ResumedAt = got.ResumedAt
	compareResults(t, want, got)
}

// compareCanceledFork checks a fork that observed a dead context on step
// n: it must hold exactly the state of the oracle's full run cut by the
// budget after step n-1, with the step counter already at n.
func compareCanceledFork(t *testing.T, c *interp.Compiled, opts interp.Options, got *interp.Result) {
	t.Helper()
	if !errors.Is(got.Err, interp.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", got.Err)
	}
	opts.Ctx = nil
	opts.StepBudget = got.Steps - 1
	want := treeFull(c, opts)
	var wr, gr *interp.RuntimeError
	if !errors.As(want.Err, &wr) || !errors.As(got.Err, &gr) || wr.Pos != gr.Pos || wr.Stmt != gr.Stmt {
		t.Fatalf("abort site: oracle %v, fork %v", want.Err, got.Err)
	}
	if want.Rendered != got.Rendered {
		t.Fatalf("Rendered:\ntree %q\nvm   %q", want.Rendered, got.Rendered)
	}
	compareTraces(t, want.Trace, got.Trace)
}

// TestForkMatchesFullRun is the core differential: for every retained
// checkpoint and a spread of switched predicates at or after it, the
// forked run must be byte-identical to a full switched run.
func TestForkMatchesFullRun(t *testing.T) {
	c, orig, st := capturedRun(t, ckSrc, ckInput(), 0)
	if st.Len() < 3 {
		t.Fatalf("want >= 3 checkpoints, got %d", st.Len())
	}
	preds := predicateInstances(orig.Trace)
	compared := 0
	for _, ck := range st.cks {
		var targets []int
		for _, p := range preds {
			if p >= ck.prefix.Len() {
				targets = append(targets, p)
			}
		}
		if len(targets) == 0 {
			continue
		}
		for _, p := range []int{targets[0], targets[len(targets)/2], targets[len(targets)-1]} {
			opts := interp.Options{Input: ckInput(), Switch: switchAt(orig.Trace, p)}
			t.Run(fmt.Sprintf("ck@%d/%v", ck.steps, opts.Switch), func(t *testing.T) {
				compareFork(t, treeFull(c, opts), runFrom(c, ck, opts), ck.steps)
			})
			compared++
		}
	}
	if compared < 10 {
		t.Errorf("only %d fork/full comparisons ran; test subject too small", compared)
	}
}

// TestCheckpointCaptureIsObservablyFree: attaching a store must not
// change the run it captures from, and the capture schedule must be
// deterministic.
func TestCheckpointCaptureIsObservablyFree(t *testing.T) {
	c, withStore, st := capturedRun(t, ckSrc, ckInput(), 0)
	compareResults(t, treeFull(c, interp.Options{Input: ckInput()}), withStore)

	_, _, st2 := capturedRun(t, ckSrc, ckInput(), 0)
	if st.Len() != st2.Len() {
		t.Fatalf("checkpoint count diverged across runs: %d vs %d", st.Len(), st2.Len())
	}
	for i := range st.cks {
		if st.cks[i].steps != st2.cks[i].steps {
			t.Errorf("checkpoint %d at step %d vs %d", i, st.cks[i].steps, st2.cks[i].steps)
		}
	}
}

// TestStoreThinning: the stride-doubling policy respects the max bound,
// keeps checkpoints in ascending step order, and spaces them at least
// one (doubled) stride apart.
func TestStoreThinning(t *testing.T) {
	src := `func main() { var s = 0; for (var i = 0; i < 2000; i++) { if (i % 2 == 0) { s += i; } } print(s); }`
	c, r, st := capturedRun(t, src, nil, 8)
	compareResults(t, treeFull(c, interp.Options{}), r)
	stats := st.Stats()
	if stats.Count > 8 || stats.Count == 0 {
		t.Errorf("Count = %d, want in [1, 8]", stats.Count)
	}
	if stats.Thinned == 0 || stats.Captured <= stats.Count {
		t.Errorf("thinning never fired: %+v", stats)
	}
	if stats.Bytes <= 0 {
		t.Errorf("Bytes = %d, want > 0", stats.Bytes)
	}
	if st.stride < 2 || st.stride&(st.stride-1) != 0 {
		t.Errorf("stride = %d, want a doubled power of two", st.stride)
	}
	for i := 1; i < len(st.cks); i++ {
		if gap := st.cks[i].steps - st.cks[i-1].steps; gap < st.stride {
			t.Fatalf("checkpoints %d and %d are %d steps apart, want >= stride %d", i-1, i, gap, st.stride)
		}
	}
}

// TestNearest: binary search boundaries.
func TestNearest(t *testing.T) {
	_, _, st := capturedRun(t, ckSrc, ckInput(), 0)
	first := st.cks[0]
	if got := st.Nearest(first.prefix.Len() - 1); got != nil {
		t.Errorf("Nearest before the first checkpoint = ck@%d, want nil", got.steps)
	}
	last := st.cks[st.Len()-1]
	if got := st.Nearest(1 << 30); got != last {
		t.Errorf("Nearest far past the end = ck@%d, want the last ck@%d", got.steps, last.steps)
	}
	for _, ck := range st.cks {
		if got := st.Nearest(ck.prefix.Len()); got != ck {
			t.Errorf("Nearest(%d) skipped the exact checkpoint", ck.prefix.Len())
		}
	}
}

// TestForkBudgetExhaustion: a budget that expires mid-suffix must fail
// exactly like a full run — ErrBudget with Steps clamped to the budget —
// because the fork inherits the checkpoint's step count. A budget at or
// below that step count cannot be honored by a fork and is declined.
func TestForkBudgetExhaustion(t *testing.T) {
	c, orig, st := capturedRun(t, ckSrc, ckInput(), 0)
	mid := st.cks[st.Len()/2]
	// Find a switch target whose switched run lasts well past the mid
	// checkpoint (a switch can shorten the run, e.g. by forcing a break).
	var opts interp.Options
	var ck *checkpoint
	for _, p := range predicateInstances(orig.Trace) {
		if p < mid.prefix.Len() {
			continue
		}
		cand := interp.Options{Input: ckInput(), Switch: switchAt(orig.Trace, p)}
		near := st.Nearest(p)
		if sw := treeFull(c, cand); sw.Err == nil && sw.Steps > near.steps+4 {
			opts, ck = cand, near
			opts.StepBudget = near.steps + (sw.Steps-near.steps)/2
			break
		}
	}
	if ck == nil {
		t.Fatal("no switch target with a long enough switched run")
	}
	want := treeFull(c, opts)
	if !errors.Is(want.Err, interp.ErrBudget) || want.Steps != opts.StepBudget {
		t.Fatalf("full run: err = %v steps = %d, want ErrBudget at %d", want.Err, want.Steps, opts.StepBudget)
	}
	got := Backend.RunSwitchedFrom(st, orig.Trace, c, opts)
	if got == nil {
		t.Fatal("fork declined a budget past the checkpoint")
	}
	compareFork(t, want, got, ck.steps)

	for _, budget := range []int{ck.steps, ck.steps - 1} {
		opts.StepBudget = budget
		if r := Backend.RunSwitchedFrom(st, orig.Trace, c, opts); r != nil {
			t.Errorf("budget %d at or below checkpoint step %d: fork honored it", budget, ck.steps)
		}
	}
}

// TestForkDeadlineMidSuffix: periodic context checks keep firing on the
// absolute step grid during a forked suffix, and an already-dead context
// is reported before any suffix step runs.
func TestForkDeadlineMidSuffix(t *testing.T) {
	src := `func main() { var s = 0; for (var i = 0; i < 3000; i++) { if (i % 2 == 0) { s += i; } } print(s); }`
	c, orig, st := capturedRun(t, src, nil, 0)
	ck := st.cks[0]
	// Survive the entry check and the forced first-step check; die at the
	// first periodic check after that.
	opts := interp.Options{Switch: switchAt(orig.Trace, orig.Trace.Len()-2), Ctx: &countdownCtx{left: 2}}
	got := runFrom(c, ck, opts)
	compareCanceledFork(t, c, opts, got)
	if got.Steps%1024 != 0 {
		t.Errorf("Steps = %d: mid-suffix abort must land on the 1024-step check grid", got.Steps)
	}
	if got.Steps <= ck.steps+1 || got.Steps >= orig.Steps {
		t.Errorf("Steps = %d, want strictly inside the suffix (%d, %d)", got.Steps, ck.steps+1, orig.Steps)
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	r := runFrom(c, ck, interp.Options{Ctx: dead})
	if !errors.Is(r.Err, interp.ErrCanceled) {
		t.Errorf("dead ctx: err = %v, want ErrCanceled", r.Err)
	}
	if r.Steps != ck.steps || r.Trace != nil {
		t.Errorf("dead ctx: Steps = %d Trace = %v, want inherited steps and no trace", r.Steps, r.Trace)
	}
}

// TestForkedRunFirstStepCtxCheck pins the forced first poll: a fork
// inherits an arbitrary step count, so its first suffix step sits off
// the check grid — yet it must still observe a context that dies between
// the fork's entry check and that first step. Without the forced check,
// a short suffix would never poll the context at all.
func TestForkedRunFirstStepCtxCheck(t *testing.T) {
	src := `func main() {
	    var s = 0;
	    for (var i = 0; i < 40; i++) { if (i % 2 == 0) { s += i; } }
	    print(s);
	}`
	c, full, st := capturedRun(t, src, nil, 0)
	if full.Steps >= 1024 {
		t.Fatalf("subject too large (%d steps): periodic checks would mask the forced one", full.Steps)
	}
	if st.Len() == 0 {
		t.Fatal("no checkpoints captured")
	}
	ck := st.cks[st.Len()/2]
	opts := interp.Options{Ctx: &countdownCtx{left: 1}}
	r := runFrom(c, ck, opts)
	compareCanceledFork(t, c, opts, r)
	if r.Steps != ck.steps+1 {
		t.Errorf("Steps = %d, want %d (abort on the first suffix step)", r.Steps, ck.steps+1)
	}
}

// TestRunSwitchedFromFallbacks: the backend declines, leaving the caller
// on the full-run path, exactly when a fork cannot honor the request.
func TestRunSwitchedFromFallbacks(t *testing.T) {
	c, orig, st := capturedRun(t, ckSrc, ckInput(), 0)
	unknown := interp.Options{Input: ckInput(), Switch: &interp.SwitchPlan{Stmt: 1, Occ: 99999}}
	late := interp.Options{Input: ckInput(), Switch: switchAt(orig.Trace, orig.Trace.Len()-1)}
	if st.cks[0].prefix.Len() == 0 {
		t.Fatal("first checkpoint at trace start: no pre-checkpoint instance to test")
	}
	cases := []struct {
		name string
		cks  interp.Checkpoints
		orig *trace.Trace
		opts interp.Options
	}{
		{"unknown instance", st, orig.Trace, unknown},
		{"nil store", nil, orig.Trace, late},
		{"tree store", interp.Tree.NewCheckpoints(0), orig.Trace, late},
		{"no trace", st, nil, late},
		{"no switch plan", st, orig.Trace, interp.Options{Input: ckInput()}},
		{"pre-checkpoint instance", st, orig.Trace, interp.Options{Input: ckInput(), Switch: switchAt(orig.Trace, 0)}},
	}
	for _, tc := range cases {
		if r := Backend.RunSwitchedFrom(tc.cks, tc.orig, c, tc.opts); r != nil {
			t.Errorf("%s: got a run, want nil", tc.name)
		}
	}
	if Backend.RunSwitchedFrom(st, orig.Trace, c, late) == nil {
		t.Error("late predicate: fork declined")
	}
}
