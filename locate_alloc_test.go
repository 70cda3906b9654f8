package eol

import (
	"runtime"
	"testing"

	"eol/internal/backend"
	"eol/internal/bench"
	"eol/internal/confidence"
	"eol/internal/core"
	"eol/internal/interp"
	"eol/internal/oracle"
)

// raceDetector is set when the tests run under -race.
var raceDetector bool

// grepLongSpec returns a function that makes a fresh Spec for a
// grep-long-sized localization: grepsim/V4-F2 on 30 scaled input lines,
// with the correct version's run as the benign-state oracle and the value
// profile (as eolcorpus and eolserve prepare a subject), and one
// verification worker, so that the allocations of a Locate repeat
// exactly.
func grepLongSpec(tb testing.TB) func() *core.Spec {
	tb.Helper()
	p := prep(tb, "grepsim/V4-F2")
	in := bench.ScaledGrepInput(30)
	cor := backend.Default().Run(p.Correct, interp.Options{Input: in, BuildTrace: true})
	if cor.Err != nil {
		tb.Fatalf("correct run: %v", cor.Err)
	}
	prof := confidence.NewProfile()
	prof.AddTrace(cor.Trace)
	return func() *core.Spec {
		return &core.Spec{
			Program:       p.Faulty,
			Input:         in,
			Expected:      cor.OutputValues(),
			RootCause:     []int{p.RootStmt},
			Oracle:        &oracle.StateOracle{Correct: cor.Trace},
			Profile:       prof,
			VerifyWorkers: 1,
		}
	}
}

// TestGrepLongLocateAllocCeiling bounds what one grep-long-sized Locate
// allocates. Its PruneSlicing passes take 733 benign oracle answers, each
// followed by a re-prune and a new question. Allocation counts repeat
// exactly from run to run where wall time on a shared host does not, so
// this catches a partial return to re-collecting and re-sorting the
// candidates after every answer, which the benchmark's wall-time bounds
// cannot.
//
// Readings on linux/amd64, Go 1.24: re-sorting the candidates after
// every answer, a Locate allocated 37.56 MB in 68,400 allocations; with
// the candidate heap, 21.76 MB in 57,100. With one replay of the failing
// trace's prefix per Locate in the replay filter, instead of one per
// predicate instance it analyzes, and PD(u) walked over its instance
// window, 17.51 MB in 28,180. With 56-byte pointer-free trace entries
// whose records live in per-trace arenas, and forks that reserve their
// entries and arenas at the sizes the failing run's suffix took,
// 10.88 MB in 28,000. With each trace relation stored once — no
// dependence-graph copy of the trace's edges, one forward index, and the
// region forest read from interval ends instead of children rows —
// 9.96 MB in 24,652. Each ceiling sits 10% above that reading.
func TestGrepLongLocateAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		maxBytes  = 10_960_000
		maxAllocs = 27_120
	)
	spec := grepLongSpec(t)
	var rep *core.Report
	locate := func() {
		var err error
		if rep, err = core.Locate(spec()); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(2, locate)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	locate()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc

	// The ceilings were measured on this subject; a different shape
	// makes them meaningless.
	if n, st := rep.Trace.Len(), rep.Stats; !rep.Located || n != 2699 || st.UserPrunings != 733 || st.Iterations != 5 {
		t.Fatalf("subject changed: located=%v, %d trace entries, %d user prunings, %d iterations; want true, 2699, 733, 5",
			rep.Located, n, st.UserPrunings, st.Iterations)
	}
	t.Logf("per Locate: %d bytes in %.0f allocations", bytes, allocs)
	if bytes > maxBytes {
		t.Errorf("a Locate allocated %d bytes; ceiling %d", bytes, maxBytes)
	}
	if allocs > maxAllocs {
		t.Errorf("a Locate made %.0f allocations; ceiling %d", allocs, maxAllocs)
	}
}

// paper9Specs returns a function that makes fresh Specs for the nine
// paper cases, each with the correct version's run as the benign-state
// oracle, and one verification worker.
func paper9Specs(tb testing.TB) func() []*core.Spec {
	tb.Helper()
	type job struct {
		p   *bench.Prepared
		cor *interp.Result
	}
	var jobs []job
	for _, name := range allCaseNames() {
		p := prep(tb, name)
		jobs = append(jobs, job{p, p.CorrectTrace()})
	}
	return func() []*core.Spec {
		specs := make([]*core.Spec, len(jobs))
		for i, j := range jobs {
			specs[i] = &core.Spec{
				Program:       j.p.Faulty,
				Input:         j.p.Case.FailingInput,
				Expected:      j.p.Expected,
				RootCause:     []int{j.p.RootStmt},
				Oracle:        &oracle.StateOracle{Correct: j.cor.Trace},
				Profile:       j.p.Profile,
				VerifyWorkers: 1,
			}
		}
		return specs
	}
}

// TestPaper9LocateAllocCeiling bounds what one round of Locates over the
// nine paper cases allocates. Their traces are short, so fixed
// per-Locate costs show: this catches a Locate that rebuilds the
// program's dataflow analysis instead of reading the one cached on the
// compiled program (dataflow.Of), which the grep-long ceiling cannot.
//
// Readings on linux/amd64, Go 1.24: rebuilding the analysis in every
// Locate's slicing context, a round allocated 4.75 MB in 24,160
// allocations; with the cached analysis, 4.34 MB in 14,930; with compact
// trace entries and record arenas, 3.19 MB in 14,909; with each trace
// relation stored once, 2.94 MB in 13,135. Each ceiling sits 10% above
// the latest reading.
func TestPaper9LocateAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		maxBytes  = 3_240_000
		maxAllocs = 14_450
	)
	specs := paper9Specs(t)
	var reps []*core.Report
	round := func() {
		reps = reps[:0]
		for _, s := range specs() {
			rep, err := core.Locate(s)
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
		}
	}
	allocs := testing.AllocsPerRun(2, round)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc

	entries, verifications, switched := 0, 0, int64(0)
	for _, rep := range reps {
		if !rep.Located {
			t.Fatal("a paper case was not located")
		}
		entries += rep.Trace.Len()
		verifications += rep.Stats.Verifications
		switched += rep.Stats.SwitchedRuns
	}
	t.Logf("per round of %d Locates: %d bytes in %.0f allocations; %d trace entries, %d verifications, %d switched runs",
		len(reps), bytes, allocs, entries, verifications, switched)
	if bytes > maxBytes {
		t.Errorf("a round allocated %d bytes; ceiling %d", bytes, maxBytes)
	}
	if allocs > maxAllocs {
		t.Errorf("a round made %.0f allocations; ceiling %d", allocs, maxAllocs)
	}
}
