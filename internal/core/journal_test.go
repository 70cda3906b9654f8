package core_test

// Journal determinism: the JSONL event stream Locate emits must be
// byte-identical for any worker count, with or without the switched-run
// cache and the static skip-filter. This extends the Report-level
// determinism contract (determinism_test.go) down to the observability
// layer — the journal carries per-batch counter deltas and per-result
// marks, so any scheduling leak (events emitted from worker goroutines,
// worker counts in attributes, absorption-order drift) shows up as a
// byte diff here.

import (
	"bytes"
	"fmt"
	"testing"

	"eol/internal/bench"
	"eol/internal/core"
	"eol/internal/obs"
)

// journalFor runs Locate on spec with the given engine sizing and
// returns the raw JSONL journal bytes.
func journalFor(t *testing.T, spec *core.Spec, workers, cacheSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	spec.VerifyWorkers = workers
	spec.VerifyCacheSize = cacheSize
	spec.Observer = j
	if _, err := core.Locate(spec); err != nil {
		t.Fatalf("Locate(workers=%d cache=%d): %v", workers, cacheSize, err)
	}
	if err := j.Flush(); err != nil {
		t.Fatalf("journal flush: %v", err)
	}
	return buf.Bytes()
}

// diffLine finds the first differing line for a readable failure report.
func diffLine(a, b []byte) string {
	al, bl := bytes.Split(a, []byte{'\n'}), bytes.Split(b, []byte{'\n'})
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestJournalDeterminismFig1: byte-identical journals for workers 1 vs 8
// under every cache / skip-filter combination on the Figure 1 program.
func TestJournalDeterminismFig1(t *testing.T) {
	for _, cfg := range []struct {
		label   string
		cacheSz int
		noSkip  bool
	}{
		{"nocache", -1, false},
		{"cache", 0, false},
		{"nocache/noskip", -1, true},
		{"cache/noskip", 0, true},
	} {
		specA, specB := fig1DetSpec(t), fig1DetSpec(t)
		specA.Disable.StaticSkip = cfg.noSkip
		specB.Disable.StaticSkip = cfg.noSkip
		want := journalFor(t, specA, 1, cfg.cacheSz)
		got := journalFor(t, specB, 8, cfg.cacheSz)
		if err := obs.ValidateJournal(bytes.NewReader(want)); err != nil {
			t.Fatalf("%s: invalid journal: %v", cfg.label, err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s: journal differs between workers=1 and workers=8\n%s",
				cfg.label, diffLine(want, got))
		}
	}
}

// TestJournalDeterminismIncremental: the journal must be byte-identical
// with incremental re-pruning on vs off — the mode-dependent cost
// counters (Stats.Repropagated, Stats.DirtyFraction) live only in the
// Report, never in the event stream (docs/OBSERVABILITY.md).
func TestJournalDeterminismIncremental(t *testing.T) {
	specFull, specInc := fig1DetSpec(t), fig1DetSpec(t)
	specFull.Disable.IncrementalReprune = true
	want := journalFor(t, specFull, 1, -1)
	got := journalFor(t, specInc, 1, -1)
	if !bytes.Equal(want, got) {
		t.Errorf("journal differs between incremental off and on\n%s", diffLine(want, got))
	}

	for _, name := range []string{"grepsim/V4-F2", "sedsim/V3-F2"} {
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
		specFull := pA.Spec()
		specFull.Disable.IncrementalReprune = true
		want := journalFor(t, specFull, 4, 0)
		got := journalFor(t, pB.Spec(), 4, 0)
		if !bytes.Equal(want, got) {
			t.Errorf("%s: journal differs between incremental off and on\n%s",
				name, diffLine(want, got))
		}
	}
}

// TestJournalDeterminismSed: the same byte-level comparison on the
// hardest benchmark cases — the largest verification batches, where the
// cache and the skip-filter actually fire.
func TestJournalDeterminismSed(t *testing.T) {
	for _, name := range []string{"sedsim/V3-F2", "sedsim/V3-F3"} {
		c := bench.ByName(name)
		if c == nil {
			t.Fatalf("unknown case %s", name)
		}
		for _, cacheSz := range []int{-1, 0} {
			pA, err := c.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			pB, err := c.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			want := journalFor(t, pA.Spec(), 1, cacheSz)
			got := journalFor(t, pB.Spec(), 8, cacheSz)
			if err := obs.ValidateJournal(bytes.NewReader(want)); err != nil {
				t.Fatalf("%s cache=%d: invalid journal: %v", name, cacheSz, err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("%s cache=%d: journal differs between workers=1 and workers=8\n%s",
					name, cacheSz, diffLine(want, got))
			}
		}
	}
}
