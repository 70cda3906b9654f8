package harness

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"eol/internal/bench"
	"eol/internal/core"
)

// VerifyRow compares verification scheduling modes for one error case:
// the engine ablation behind Table 4's "Verification" column. All three
// modes run the full demand-driven localization; they differ only in how
// the switched re-executions are scheduled.
type VerifyRow struct {
	Case string
	// Sequential: workers=1, cache disabled (the pre-engine inline path).
	Sequential time.Duration
	// Parallel: workers=N, cache disabled.
	Parallel time.Duration
	// Cached: workers=N plus the switched-run cache.
	Cached time.Duration
	// SpeedupPar / SpeedupCached are Sequential divided by the mode time.
	SpeedupPar, SpeedupCached float64
	// HitRate is the switched-run cache hit rate in cached mode; Runs the
	// re-executions it still performed, Saved the ones it avoided.
	HitRate float64
	Runs    int64
	Saved   int64
	// Verifications is the (mode-independent) verification count.
	Verifications int
	// ReplaySkips counts candidates retired by the trace-replay skip
	// filter without a switched run. It is decided in the engine's
	// sequential planning loop, hence mode-independent.
	ReplaySkips int64
}

// VerifyCase measures one case with the given parallel worker count,
// min-of-reps per mode, interleaved against scheduler noise. It fails if
// the three modes disagree on any reproducibility-relevant Report field —
// the harness-level enforcement of the engine's determinism contract.
// opt.Observer, when non-nil, sees the warm-up round only: the timed
// rounds always run unobserved.
func VerifyCase(p *bench.Prepared, opt Options) (*VerifyRow, error) {
	workers, reps := opt.Workers, opt.Reps
	if workers <= 0 {
		workers = 4
	}
	if reps <= 0 {
		reps = 5
	}
	modes := []struct {
		name             string
		workers, cacheSz int
	}{
		{"sequential", 1, -1},
		{"parallel", workers, -1},
		{"cached", workers, opt.Cache},
	}

	best := make([]time.Duration, len(modes))
	reports := make([]*core.Report, len(modes))
	for i := range best {
		best[i] = time.Duration(1 << 62)
	}
	for r := 0; r < reps+1; r++ { // first round is warm-up
		for i, m := range modes {
			spec := p.Spec()
			spec.VerifyWorkers = m.workers
			spec.VerifyCacheSize = m.cacheSz
			if r == 0 {
				spec.Observer = opt.Observer
			}
			start := time.Now()
			rep, err := core.LocateContext(opt.Ctx, spec)
			d := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", p.Case.Name(), m.name, err)
			}
			if r == 0 {
				reports[i] = rep
				continue
			}
			if d < best[i] {
				best[i] = d
			}
		}
	}

	// Determinism cross-check: every mode must report the same outcome.
	for i := 1; i < len(modes); i++ {
		if err := sameOutcome(reports[0], reports[i]); err != nil {
			return nil, fmt.Errorf("%s: %s diverged from sequential: %w",
				p.Case.Name(), modes[i].name, err)
		}
	}

	stats := reports[2].Stats
	row := &VerifyRow{
		Case:          p.Case.Name(),
		Sequential:    best[0],
		Parallel:      best[1],
		Cached:        best[2],
		HitRate:       stats.CacheHitRate(),
		Runs:          stats.SwitchedRuns,
		Saved:         stats.CacheHits,
		Verifications: reports[0].Stats.Verifications,
		ReplaySkips:   reports[0].Stats.StaticSkips,
	}
	if best[1] > 0 {
		row.SpeedupPar = float64(best[0]) / float64(best[1])
	}
	if best[2] > 0 {
		row.SpeedupCached = float64(best[0]) / float64(best[2])
	}
	return row, nil
}

// sameOutcome compares the reproducibility-relevant Report fields.
func sameOutcome(a, b *core.Report) error {
	switch {
	case a.Located != b.Located || a.RootEntry != b.RootEntry:
		return fmt.Errorf("location %v@%d vs %v@%d", a.Located, a.RootEntry, b.Located, b.RootEntry)
	case a.Stats.Verifications != b.Stats.Verifications:
		return fmt.Errorf("verifications %d vs %d", a.Stats.Verifications, b.Stats.Verifications)
	case a.Stats.UserPrunings != b.Stats.UserPrunings || a.Stats.Iterations != b.Stats.Iterations ||
		a.Stats.ExpandedEdges != b.Stats.ExpandedEdges:
		return fmt.Errorf("counters differ")
	case !reflect.DeepEqual(a.VerifyLog, b.VerifyLog):
		return fmt.Errorf("verify log order differs")
	}
	return nil
}

// VerifyTable runs VerifyCase over every benchmark case.
func VerifyTable(opt Options) ([]VerifyRow, error) {
	var rows []VerifyRow
	for _, c := range bench.Cases() {
		p, err := c.Prepare()
		if err != nil {
			return nil, err
		}
		row, err := VerifyCase(p, opt)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// WriteVerifyTable renders the verification-throughput comparison.
func WriteVerifyTable(w io.Writer, rows []VerifyRow) {
	fmt.Fprintf(w, "Verification throughput: sequential vs parallel vs cached (min-of-reps)\n")
	fmt.Fprintf(w, "%-16s %10s %10s %10s %6s %6s %7s %6s %6s %6s\n",
		"Case", "Seq", "Par", "Cached", "xPar", "xCache", "hit%", "runs", "verifs", "replay")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %10s %10s %10s %5.2fx %5.2fx %6.1f%% %6d %6d %6d\n",
			r.Case, r.Sequential.Round(time.Microsecond),
			r.Parallel.Round(time.Microsecond), r.Cached.Round(time.Microsecond),
			r.SpeedupPar, r.SpeedupCached, 100*r.HitRate, r.Runs, r.Verifications,
			r.ReplaySkips)
	}
}
