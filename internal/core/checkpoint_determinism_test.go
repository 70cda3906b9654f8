package core_test

// A/B coverage for checkpointed switched replay: every observable output
// of Locate — verdict, Table 3 counters, VerifyLog, IPS ranking, and the
// byte-level obs journal — must be identical with checkpointing on and
// off, across worker/cache/skip configurations. Only the checkpoint cost
// counters may differ, and on the forked side they must show that the
// shortcut actually fired.

import (
	"bytes"
	"testing"

	"eol/internal/bench"
	"eol/internal/core"
	"eol/internal/obs"
)

// locateJournaled runs Locate capturing the JSONL journal bytes.
func locateJournaled(t *testing.T, spec *core.Spec) (*core.Report, []byte) {
	t.Helper()
	var buf bytes.Buffer
	j := obs.NewJournal(&buf)
	spec.Observer = j
	rep, err := core.Locate(spec)
	if err != nil {
		t.Fatalf("Locate: %v", err)
	}
	if err := j.Flush(); err != nil {
		t.Fatalf("journal flush: %v", err)
	}
	return rep, buf.Bytes()
}

// TestDeterminismCheckpoints: checkpoints on vs off on Figure 1, across
// the engine configurations, with journal byte-comparison.
func TestDeterminismCheckpoints(t *testing.T) {
	offSpec := fig1DetSpec(t)
	offSpec.Disable.Checkpoints = true
	offSpec.VerifyWorkers, offSpec.VerifyCacheSize = 1, -1
	want, wantJournal := locateJournaled(t, offSpec)
	if !want.Located {
		t.Fatal("baseline did not locate")
	}
	if want.Stats.CheckpointHits != 0 || want.Stats.Checkpoints != 0 {
		t.Fatalf("checkpoints disabled, yet stats report %d hits / %d checkpoints",
			want.Stats.CheckpointHits, want.Stats.Checkpoints)
	}

	var hits int64
	for _, cfg := range []struct {
		label            string
		workers, cacheSz int
		noSkip           bool
	}{
		{"workers=1/nocache", 1, -1, false},
		{"workers=1/nocache/noskip", 1, -1, true},
		{"workers=8/nocache", 8, -1, false},
		{"workers=8/cache", 8, 0, false},
	} {
		spec := fig1DetSpec(t)
		spec.VerifyWorkers, spec.VerifyCacheSize = cfg.workers, cfg.cacheSz
		spec.Disable.StaticSkip = cfg.noSkip

		specOff := fig1DetSpec(t)
		specOff.Disable = core.Disable{StaticSkip: cfg.noSkip, Checkpoints: true}
		specOff.VerifyWorkers, specOff.VerifyCacheSize = cfg.workers, cfg.cacheSz

		on, onJournal := locateJournaled(t, spec)
		off, offJournal := locateJournaled(t, specOff)
		assertSameOutcome(t, cfg.label+"/on-vs-off", off, on)
		if !bytes.Equal(onJournal, offJournal) {
			t.Errorf("%s: journal bytes diverged with checkpoints on", cfg.label)
		}
		// The same-config journal must also match the sequential baseline
		// when only workers changed (cache state changes the hit counters
		// but those are not journal gauges either).
		if cfg.cacheSz == -1 && !cfg.noSkip && !bytes.Equal(onJournal, wantJournal) {
			t.Errorf("%s: journal bytes diverged from the sequential baseline", cfg.label)
		}
		if on.Stats.Checkpoints == 0 {
			t.Errorf("%s: no checkpoints captured with checkpointing on", cfg.label)
		}
		hits += on.Stats.CheckpointHits
		if on.Stats.CheckpointHits > 0 && on.Stats.SuffixSteps == 0 {
			t.Errorf("%s: %d checkpoint hits but zero suffix steps", cfg.label, on.Stats.CheckpointHits)
		}
	}
	if hits == 0 {
		t.Error("checkpointed replay never fired on Figure 1")
	}
}

// TestDeterminismCheckpointsSed: the same on/off comparison on the sed
// simulator cases — long traces, where forks skip the most work.
func TestDeterminismCheckpointsSed(t *testing.T) {
	for _, name := range []string{"sedsim/V3-F2", "sedsim/V3-F3"} {
		c := bench.ByName(name)
		if c == nil {
			t.Fatalf("unknown case %s", name)
		}
		p, err := c.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		specOff := p.Spec()
		specOff.Disable.Checkpoints = true
		want, wantJournal := locateJournaled(t, specOff)

		spec := p.Spec()
		spec.VerifyWorkers = 8
		on, onJournal := locateJournaled(t, spec)
		assertSameOutcome(t, name+"/checkpoints-on", want, on)
		if !bytes.Equal(onJournal, wantJournal) {
			t.Errorf("%s: journal bytes diverged with checkpoints on", name)
		}
		if on.Stats.CheckpointHits == 0 {
			t.Errorf("%s: checkpointed replay never fired", name)
		} else if on.Stats.SuffixSteps == 0 {
			t.Errorf("%s: %d checkpoint hits but zero suffix steps", name, on.Stats.CheckpointHits)
		}
	}
}
