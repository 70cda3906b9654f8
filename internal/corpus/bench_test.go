package corpus

import (
	"context"
	"testing"

	"eol/internal/bench"
	"eol/internal/obs"
)

// repeatManifest builds a corpus of n sessions of the same benchmark
// case — the "many localizations of one program family" workload that
// cross-session cache sharing targets.
func repeatManifest(b *testing.B, n int) *Manifest {
	b.Helper()
	c := bench.Cases()[0]
	faulty, err := c.FaultySrc()
	if err != nil {
		b.Fatal(err)
	}
	m := &Manifest{}
	for i := 0; i < n; i++ {
		m.Subjects = append(m.Subjects, Subject{
			Name:          c.Name() + "-" + string(rune('a'+i)),
			Source:        faulty,
			CorrectSource: c.CorrectSrc,
			Input:         c.FailingInput,
			RootFrag:      c.RootFrag,
		})
	}
	return m
}

// BenchmarkCorpusSharedCache runs the repeat-corpus and reports the
// aggregate switched-run cache hit rate (hits/(hits+misses) summed over
// the subjects' engine counters), the gain of one cache shared across
// the corpus.
func BenchmarkCorpusSharedCache(b *testing.B) {
	m := repeatManifest(b, 6)
	var agg obs.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), m, Options{Shards: 2, VerifyWorkers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed > 0 {
			b.Fatalf("%d subjects failed", res.Failed)
		}
		agg = obs.Stats{}
		for j := range res.Subjects {
			st := &res.Subjects[j].Report.Stats
			agg.CacheHits += st.CacheHits
			agg.CacheMisses += st.CacheMisses
			agg.SwitchedRuns += st.SwitchedRuns
		}
	}
	b.StopTimer()
	b.ReportMetric(agg.CacheHitRate(), "cache-hit-rate")
	b.ReportMetric(float64(agg.SwitchedRuns), "switched-runs")
}
