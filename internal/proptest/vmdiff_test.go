package proptest

// Backend differential lane: the bytecode VM (internal/vm) must be
// observationally identical to the tree-walking reference interpreter on
// randomly generated programs — same Steps, same outputs, same trace
// entries, and, under budget exhaustion or mid-run cancellation, the
// same error class and the same trace prefix at the cut point. The
// hand-written differential suite lives in internal/vm; this lane runs
// the generator over both backends so new language constructs cannot
// drift between them unnoticed.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"eol/internal/interp"
	"eol/internal/testsupport"
	"eol/internal/vm"
)

// assertSameResult compares every observable Result field plus the
// entry-by-entry trace; on a cut run (budget or cancel) the traces are
// themselves the prefixes at the cut point, so whole-trace equality is
// the prefix property.
func assertSameResult(t *testing.T, label string, tree, got *interp.Result) {
	t.Helper()
	if tree.Steps != got.Steps {
		t.Fatalf("%s: Steps tree %d, vm %d", label, tree.Steps, got.Steps)
	}
	if tree.Rendered != got.Rendered {
		t.Fatalf("%s: Rendered tree %q, vm %q", label, tree.Rendered, got.Rendered)
	}
	if !reflect.DeepEqual(tree.Outputs, got.Outputs) {
		t.Fatalf("%s: Outputs tree %v, vm %v", label, tree.Outputs, got.Outputs)
	}
	if (tree.Err == nil) != (got.Err == nil) {
		t.Fatalf("%s: Err tree %v, vm %v", label, tree.Err, got.Err)
	}
	if tree.Err != nil {
		var te, ge *interp.RuntimeError
		if !errors.As(tree.Err, &te) || !errors.As(got.Err, &ge) {
			t.Fatalf("%s: Err types tree %T, vm %T", label, tree.Err, got.Err)
		}
		if te.Pos != ge.Pos || te.Stmt != ge.Stmt || te.Error() != ge.Error() {
			t.Fatalf("%s: Err tree %v, vm %v", label, tree.Err, got.Err)
		}
	}
	if (tree.Trace == nil) != (got.Trace == nil) {
		t.Fatalf("%s: Trace presence tree %v, vm %v", label, tree.Trace != nil, got.Trace != nil)
	}
	if tree.Trace == nil {
		return
	}
	if tree.Trace.Len() != got.Trace.Len() {
		t.Fatalf("%s: trace length tree %d, vm %d", label, tree.Trace.Len(), got.Trace.Len())
	}
	for i := 0; i < tree.Trace.Len(); i++ {
		if d := testsupport.EntryDiff(tree.Trace, got.Trace, i); d != "" {
			t.Fatalf("%s: vm trace against tree: %s", label, d)
		}
	}
	if !reflect.DeepEqual(tree.Trace.Outputs, got.Trace.Outputs) {
		t.Fatalf("%s: trace outputs tree %v, vm %v", label, tree.Trace.Outputs, got.Trace.Outputs)
	}
}

// TestVMDifferentialProperty: random programs run identically on both
// backends, in plain and trace mode. eachRandomRun's tree-walker run is
// the oracle; the VM must reproduce it byte for byte.
func TestVMDifferentialProperty(t *testing.T) {
	eachRandomRun(t, func(t *testing.T, c *interp.Compiled, in []int64, r *interp.Result) {
		plainTree := interp.Tree.Run(c, interp.Options{Input: in})
		plainVM := vm.Backend.Run(c, interp.Options{Input: in})
		assertSameResult(t, "plain", plainTree, plainVM)

		tracedVM := vm.Backend.Run(c, interp.Options{Input: in, BuildTrace: true})
		assertSameResult(t, "traced", r, tracedVM)
	})
}

// TestVMBudgetExhaustionProperty: for budgets below the full run length,
// both backends stop with ErrBudget at exactly the budgeted step count,
// with identical trace prefixes at the cut point.
func TestVMBudgetExhaustionProperty(t *testing.T) {
	eachRandomRun(t, func(t *testing.T, c *interp.Compiled, in []int64, r *interp.Result) {
		// Probe a spread of cut points rather than every step: the
		// property is grid-independent, the sweep lives in internal/vm.
		for _, budget := range []int{1, r.Steps / 3, r.Steps - 1, r.Steps} {
			if budget <= 0 {
				continue
			}
			opts := interp.Options{Input: in, BuildTrace: true, StepBudget: budget}
			tree := interp.Tree.Run(c, opts)
			got := vm.Backend.Run(c, opts)
			if budget < r.Steps {
				if !errors.Is(tree.Err, interp.ErrBudget) {
					t.Fatalf("budget %d of %d: tree err %v, want ErrBudget", budget, r.Steps, tree.Err)
				}
				if tree.Steps != budget {
					t.Fatalf("budget %d: tree stopped at step %d", budget, tree.Steps)
				}
			} else if tree.Err != nil {
				t.Fatalf("budget %d covers the full run, yet tree err %v", budget, tree.Err)
			}
			assertSameResult(t, "budget", tree, got)
		}
	})
}

// countdownCtx flips Err() non-nil after a fixed number of calls, so
// both backends observe the cancellation at the same poll — provided
// they poll on the same step grid, which is the property under test.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestVMCtxCancelProperty: a deterministic mid-run cancellation cuts
// both backends at the same step with the same error class and trace
// prefix. Generated runs are usually shorter than one 1024-step poll
// window, so polls=1 (cancel at the startup check) always fires and
// larger counts exercise the on-grid polls when the run is long enough.
func TestVMCtxCancelProperty(t *testing.T) {
	eachRandomRun(t, func(t *testing.T, c *interp.Compiled, in []int64, r *interp.Result) {
		for _, polls := range []int{1, 2, 3} {
			tree := interp.Tree.Run(c, interp.Options{Input: in, BuildTrace: true, Ctx: &countdownCtx{left: polls}})
			got := vm.Backend.Run(c, interp.Options{Input: in, BuildTrace: true, Ctx: &countdownCtx{left: polls}})
			if tree.Err != nil && !interp.IsCancellation(tree.Err) {
				t.Fatalf("polls %d: tree err %v, want cancellation", polls, tree.Err)
			}
			assertSameResult(t, "cancel", tree, got)
		}
	})
}

// TestVMSwitchedForkProperty: forked switched re-execution from a VM
// checkpoint store must agree with the tree-walker's full switched run
// for a sampled predicate instance of every generated program.
func TestVMSwitchedForkProperty(t *testing.T) {
	eachRandomRun(t, func(t *testing.T, c *interp.Compiled, in []int64, r *interp.Result) {
		tr := r.Trace
		pIdx := -1
		for i := tr.Len() / 2; i < tr.Len(); i++ {
			if tr.At(i).Branch != 0 {
				pIdx = i
				break
			}
		}
		if pIdx < 0 {
			return
		}
		p := tr.At(pIdx).Inst
		budget := 20 * tr.Len()
		opts := interp.Options{
			Input: in, BuildTrace: true,
			Switch:     &interp.SwitchPlan{Stmt: p.Stmt, Occ: p.Occ},
			StepBudget: budget,
		}
		tree := interp.Tree.Run(c, opts)

		// Record a checkpointed VM original, then fork the switched run.
		cks := vm.Backend.NewCheckpoints(8)
		orig := vm.Backend.Run(c, interp.Options{Input: in, BuildTrace: true, Checkpoints: cks})
		if orig.Err != nil {
			t.Fatalf("checkpointed original: %v", orig.Err)
		}
		forked := vm.Backend.RunSwitchedFrom(cks, orig.Trace, c, opts)
		if forked == nil { // no snapshot before the switch point: full run
			forked = vm.Backend.Run(c, opts)
		}
		if tree.SwitchApplied != forked.SwitchApplied {
			t.Fatalf("SwitchApplied tree %v, vm fork %v", tree.SwitchApplied, forked.SwitchApplied)
		}
		if !reflect.DeepEqual(tree.Outputs, forked.Outputs) || tree.Rendered != forked.Rendered {
			t.Fatalf("switched outputs diverged:\ntree %v %q\nfork %v %q",
				tree.Outputs, tree.Rendered, forked.Outputs, forked.Rendered)
		}
		if (tree.Err == nil) != (forked.Err == nil) {
			t.Fatalf("switched err tree %v, vm fork %v", tree.Err, forked.Err)
		}
		// Steps agree in the only sense a forked run preserves: total
		// steps including the inherited checkpoint prefix.
		if tree.Steps != forked.Steps {
			t.Fatalf("switched Steps tree %d, vm fork %d (resumed at %d)",
				tree.Steps, forked.Steps, forked.ResumedAt)
		}
	})
}
