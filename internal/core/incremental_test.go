package core_test

// Differential coverage for incremental re-pruning at the Locate level:
// Disable.IncrementalReprune toggles how the re-prune step after each expansion
// iteration is computed (delta re-propagation vs full recompute), and
// the two modes must produce identical Reports — verdict, Table 3
// counters, VerifyLog, IPS entries and confidences. Only the cost
// counters Stats.Repropagated / Stats.DirtyFraction may differ.

import (
	"testing"

	"eol/internal/bench"
	"eol/internal/core"
)

// assertSameDiagnosis extends assertSameOutcome with the confidence
// ranking, which the incremental path recomputes selectively.
func assertSameDiagnosis(t *testing.T, label string, want, got *core.Report) {
	t.Helper()
	assertSameOutcome(t, label, want, got)
	if len(got.IPSConfidence) != len(want.IPSConfidence) {
		t.Fatalf("%s: %d IPS confidences, want %d",
			label, len(got.IPSConfidence), len(want.IPSConfidence))
	}
	for i := range want.IPSConfidence {
		if got.IPSConfidence[i] != want.IPSConfidence[i] {
			t.Errorf("%s: IPS confidence %d = %v, want %v",
				label, i, got.IPSConfidence[i], want.IPSConfidence[i])
		}
	}
}

// TestIncrementalDeterminismFig1: incremental off vs on under every
// worker / cache / skip-filter combination on the Figure 1 program.
func TestIncrementalDeterminismFig1(t *testing.T) {
	for _, cfg := range []struct {
		label            string
		workers, cacheSz int
		noSkip           bool
	}{
		{"workers=1/nocache", 1, -1, false},
		{"workers=8/cache", 8, 0, false},
		{"workers=8/nocache/noskip", 8, -1, true},
	} {
		full := fig1DetSpec(t)
		full.Disable = core.Disable{IncrementalReprune: true, StaticSkip: cfg.noSkip}
		want := locateConfigured(t, full, cfg.workers, cfg.cacheSz)

		inc := fig1DetSpec(t)
		inc.Disable.StaticSkip = cfg.noSkip
		got := locateConfigured(t, inc, cfg.workers, cfg.cacheSz)
		assertSameDiagnosis(t, cfg.label, want, got)
		if want.Stats.DirtyFraction != 0 && want.Stats.DirtyFraction != 1 {
			t.Errorf("%s: full mode reported dirty fraction %v, want 0 or 1",
				cfg.label, want.Stats.DirtyFraction)
		}
	}
}

// TestIncrementalDeterminismBench: the same A/B over the benchmark cases
// with the largest re-prune volumes, and the cost claim itself — after
// iteration 1 the incremental runs must touch a strictly smaller dirty
// cone than a full recompute (DirtyFraction < 1 somewhere in the suite).
func TestIncrementalDeterminismBench(t *testing.T) {
	sawDelta := false
	for _, name := range []string{"grepsim/V4-F2", "sedsim/V3-F2", "sedsim/V3-F3"} {
		c := bench.ByName(name)
		if c == nil {
			t.Fatalf("unknown case %s", name)
		}
		pA, err := c.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		pB, err := c.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		full := pA.Spec()
		full.Disable.IncrementalReprune = true
		want := locateConfigured(t, full, 1, -1)
		got := locateConfigured(t, pB.Spec(), 1, -1)
		assertSameDiagnosis(t, name, want, got)

		if got.Stats.Iterations > 1 {
			if got.Stats.DirtyFraction >= 1 || got.Stats.DirtyFraction < 0 {
				t.Errorf("%s: incremental dirty fraction %v, want in [0, 1)",
					name, got.Stats.DirtyFraction)
			}
			if got.Stats.DirtyFraction < 1 && got.Stats.Repropagated < want.Stats.Repropagated {
				sawDelta = true
			}
		}
	}
	if !sawDelta {
		t.Error("no benchmark case exercised a strict incremental win")
	}
}
