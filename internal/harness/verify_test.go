package harness

import (
	"strings"
	"testing"
	"time"

	"eol/internal/bench"
)

// TestVerifyCase: the engine ablation on one case must time all three
// modes, agree across them (VerifyCase fails internally otherwise), and
// show the cache absorbing re-executions.
func TestVerifyCase(t *testing.T) {
	c := bench.ByName("gzipsim/V2-F3")
	p, err := c.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	row, err := VerifyCase(p, Options{Workers: 4, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if row.Sequential <= 0 || row.Parallel <= 0 || row.Cached <= 0 {
		t.Errorf("non-positive timings: %+v", row)
	}
	if row.Verifications < 1 {
		t.Errorf("verifications = %d, want >= 1", row.Verifications)
	}
	if row.Runs+row.Saved < int64(row.Verifications) {
		t.Errorf("cached mode accounted %d runs + %d saved for %d verifications",
			row.Runs, row.Saved, row.Verifications)
	}
}

// TestWriteVerifyTable covers the renderer.
func TestWriteVerifyTable(t *testing.T) {
	var sb strings.Builder
	WriteVerifyTable(&sb, []VerifyRow{{
		Case: "x/Y-1", Sequential: 3 * time.Millisecond,
		Parallel: 2 * time.Millisecond, Cached: time.Millisecond,
		SpeedupPar: 1.5, SpeedupCached: 3.0, HitRate: 0.8, Runs: 4, Verifications: 20,
		ReplaySkips: 1,
	}})
	out := sb.String()
	if !strings.Contains(out, "x/Y-1") || !strings.Contains(out, "3.00x") {
		t.Errorf("verify table render:\n%s", out)
	}
	if !strings.Contains(out, "replay") {
		t.Errorf("verify table missing the replay-skip column:\n%s", out)
	}
}
