package proptest

import (
	"fmt"
	"reflect"
	"testing"

	"eol/internal/cfg"
	"eol/internal/interp"
	"eol/internal/testsupport"
	"eol/internal/trace"
	"eol/internal/vm"
)

// TestCheckpointForkEquivalence is the checkpoint differential fuzz: for
// every generated subject, capture a VM checkpoint store during the
// traced run, then — for a spread of switched predicates — compare the
// VM's checkpoint-forked switched run against the tree-walker's full
// switched run, the reference oracle. Every observable field must be
// DeepEqual: steps, error, rendered output, output records, and the
// complete trace (entries, children, roots). This is the byte-identity
// contract of vm.Backend.RunSwitchedFrom checked over the random-program
// space instead of hand-written cases.
func TestCheckpointForkEquivalence(t *testing.T) {
	forks, falls := 0, 0
	eachRandomRun(t, func(t *testing.T, c *interp.Compiled, in []int64, r *interp.Result) {
		// Re-run on the VM with a store attached; the captured run itself
		// must be the oracle's run.
		st := vm.Backend.NewCheckpoints(0)
		ck := vm.Backend.Run(c, interp.Options{Input: in, BuildTrace: true, Checkpoints: st})
		assertSameResult(t, "captured run", r, ck)

		var preds []int
		for i := 0; i < ck.Trace.Len(); i++ {
			if ck.Trace.At(i).Branch != cfg.None {
				preds = append(preds, i)
			}
		}
		if len(preds) == 0 {
			return
		}
		// A spread of switch targets: first, middle, last.
		targets := []int{preds[0], preds[len(preds)/2], preds[len(preds)-1]}
		for _, p := range targets {
			inst := ck.Trace.At(p).Inst
			opts := interp.Options{
				Input:      in,
				Switch:     &interp.SwitchPlan{Stmt: inst.Stmt, Occ: inst.Occ},
				StepBudget: 10*ck.Trace.Len() + 1000,
			}
			full := interp.Tree.Run(c, interp.Options{
				Input: opts.Input, Switch: opts.Switch,
				StepBudget: opts.StepBudget, BuildTrace: true,
			})
			forked := vm.Backend.RunSwitchedFrom(st, ck.Trace, c, opts)
			if forked == nil {
				falls++ // no checkpoint before this predicate: full-run fallback
				continue
			}
			forks++
			label := fmt.Sprintf("switch %v from ck", inst)
			if forked.Steps != full.Steps || forked.SwitchApplied != full.SwitchApplied {
				t.Fatalf("%s: steps/applied %d/%v, want %d/%v",
					label, forked.Steps, forked.SwitchApplied, full.Steps, full.SwitchApplied)
			}
			if fmt.Sprint(forked.Err) != fmt.Sprint(full.Err) {
				t.Fatalf("%s: err %v, want %v", label, forked.Err, full.Err)
			}
			if forked.Rendered != full.Rendered {
				t.Fatalf("%s: rendered output diverged", label)
			}
			if !reflect.DeepEqual(forked.Outputs, full.Outputs) {
				t.Fatalf("%s: outputs %v, want %v", label, forked.Outputs, full.Outputs)
			}
			assertTraceDeepEqual(t, label, full.Trace, forked.Trace)
		}
	})
	if forks == 0 {
		t.Fatal("no fork ever happened: the differential never exercised a VM fork")
	}
	t.Logf("forked %d switched runs (%d fell back to full runs)", forks, falls)
}

func assertTraceDeepEqual(t *testing.T, label string, want, got *trace.Trace) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: trace presence differs", label)
	}
	if want == nil {
		return
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: trace len %d, want %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if d := testsupport.EntryDiff(want, got, i); d != "" {
			t.Fatalf("%s: %s", label, d)
		}
		if g, w := got.Ancestry().End(i), want.Ancestry().End(i); g != w {
			t.Fatalf("%s: End(%d) = %d, want %d", label, i, g, w)
		}
	}
	if d := testsupport.RegionForestDiff(got); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}
