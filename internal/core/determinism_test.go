package core_test

// Determinism coverage for the verification engine: Locate's observable
// output — location verdict, Table 3 counters, the full VerifyLog order —
// must be byte-identical for any worker count and cache setting. This is
// the contract that lets the engine parallelize the hot path without
// perturbing the paper's reproducible numbers.

import (
	"reflect"
	"testing"

	"eol/internal/bench"
	"eol/internal/core"
	"eol/internal/testsupport"
	"eol/internal/trace"
)

// fig1DetSpec rebuilds the Figure 1 localization problem (a fresh Spec
// per call: Locate and the engine attach state to the spec's verifier).
func fig1DetSpec(t *testing.T) *core.Spec {
	t.Helper()
	c := testsupport.Compile(t, testsupport.Fig1Faulty)
	fixed := testsupport.Compile(t, testsupport.Fig1Fixed)
	expected := testsupport.Run(t, fixed, testsupport.Fig1Input).OutputValues()
	root := testsupport.StmtID(t, c, "read() * 0")
	os := []trace.Instance{
		{Stmt: root, Occ: 1},
		{Stmt: testsupport.StmtID(t, c, "if (saveOrigName)"), Occ: 1},
		{Stmt: testsupport.StmtID(t, c, "outbuf[outcnt] = flags"), Occ: 1},
		{Stmt: testsupport.StmtID(t, c, "print(outbuf[1])"), Occ: 1},
	}
	return &core.Spec{
		Program:   c,
		Input:     testsupport.Fig1Input,
		Expected:  expected,
		RootCause: []int{root},
		Oracle:    core.NewChainOracle(os),
	}
}

// locateConfigured runs Locate with the given engine sizing.
func locateConfigured(t *testing.T, spec *core.Spec, workers, cacheSize int) *core.Report {
	t.Helper()
	spec.VerifyWorkers = workers
	spec.VerifyCacheSize = cacheSize
	rep, err := core.Locate(spec)
	if err != nil {
		t.Fatalf("Locate(workers=%d cache=%d): %v", workers, cacheSize, err)
	}
	return rep
}

// assertSameOutcome compares every reproducibility-relevant Report field.
func assertSameOutcome(t *testing.T, label string, want, got *core.Report) {
	t.Helper()
	if got.Located != want.Located || got.RootEntry != want.RootEntry {
		t.Errorf("%s: located %v@%d, want %v@%d",
			label, got.Located, got.RootEntry, want.Located, want.RootEntry)
	}
	if got.Stats.UserPrunings != want.Stats.UserPrunings ||
		got.Stats.Verifications != want.Stats.Verifications ||
		got.Stats.Iterations != want.Stats.Iterations ||
		got.Stats.ExpandedEdges != want.Stats.ExpandedEdges {
		t.Errorf("%s: counters (%d %d %d %d), want (%d %d %d %d)", label,
			got.Stats.UserPrunings, got.Stats.Verifications, got.Stats.Iterations, got.Stats.ExpandedEdges,
			want.Stats.UserPrunings, want.Stats.Verifications, want.Stats.Iterations, want.Stats.ExpandedEdges)
	}
	if !reflect.DeepEqual(got.VerifyLog, want.VerifyLog) {
		t.Errorf("%s: VerifyLog diverged\n got: %v\nwant: %v", label, got.VerifyLog, want.VerifyLog)
	}
	if !reflect.DeepEqual(got.IPSEntries, want.IPSEntries) {
		t.Errorf("%s: IPS entries %v, want %v", label, got.IPSEntries, want.IPSEntries)
	}
}

// TestDeterminismFig1: workers=1 (sequential) vs workers=8, with and
// without the switched-run cache, on the paper's Figure 1 program.
func TestDeterminismFig1(t *testing.T) {
	want := locateConfigured(t, fig1DetSpec(t), 1, -1)
	if !want.Located {
		t.Fatal("baseline did not locate")
	}
	for _, cfg := range []struct {
		label            string
		workers, cacheSz int
	}{
		{"workers=8/nocache", 8, -1},
		{"workers=8/cache", 8, 0},
		{"workers=1/cache", 1, 0},
	} {
		got := locateConfigured(t, fig1DetSpec(t), cfg.workers, cfg.cacheSz)
		assertSameOutcome(t, cfg.label, want, got)
	}
}

// TestDeterminismStaticSkip: the static skip-filter must be observably
// side-effect free — location verdict, Table 3 counters, the VerifyLog
// and the IPS byte-identical with the filter on vs. off — while actually
// skipping switched runs somewhere in the suite (the whole point).
func TestDeterminismStaticSkip(t *testing.T) {
	off := fig1DetSpec(t)
	off.Disable.StaticSkip = true
	want := locateConfigured(t, off, 1, -1)
	got := locateConfigured(t, fig1DetSpec(t), 1, -1)
	assertSameOutcome(t, "fig1/skip-on", want, got)

	var skips int64
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
		specOff.Disable.StaticSkip = true
		want := locateConfigured(t, specOff, 1, -1)
		got := locateConfigured(t, p.Spec(), 1, -1)
		assertSameOutcome(t, name+"/skip-on", want, got)
		if s := got.Stats.StaticSkips; s > 0 {
			skips += s
			if got.Stats.SwitchedRuns+s != want.Stats.SwitchedRuns {
				t.Errorf("%s: %d runs + %d skips, want %d runs without the filter",
					name, got.Stats.SwitchedRuns, s, want.Stats.SwitchedRuns)
			}
		}
	}
	if skips == 0 {
		t.Error("static skip-filter never fired on the sed benchmarks")
	}
}

// TestDeterminismSed: same comparison on the sed simulator benchmark
// cases — the largest traces and verification batches in the suite.
func TestDeterminismSed(t *testing.T) {
	for _, name := range []string{"sedsim/V3-F2", "sedsim/V3-F3"} {
		c := bench.ByName(name)
		if c == nil {
			t.Fatalf("unknown case %s", name)
		}
		p, err := c.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		want := locateConfigured(t, p.Spec(), 1, -1)
		if !want.Located {
			t.Fatalf("%s: baseline did not locate", name)
		}
		got := locateConfigured(t, p.Spec(), 8, 0)
		assertSameOutcome(t, name+"/workers=8", want, got)
	}
}
