package confidence

// Differential coverage for the incremental re-propagation path: an
// analyzer driven through AddEdges/Pin deltas must report exactly the
// confidences, slice and candidate ranking of a from-scratch analyzer
// over the same final graph — for any interleaving of edge additions,
// pins and judgements — and both analyzers' Next must pick the first
// unjudged entry of that ranking. This is the contract that lets
// Algorithm 2's re-prune step touch only the invalidated cone and take
// its next question from the candidate heap (see the package doc).

import (
	"math/rand"
	"testing"

	"eol/internal/depgraph"
	"eol/internal/interp"
	"eol/internal/testsupport"
	"eol/internal/trace"
)

// assertAnalyzersAgree compares every observable of the two analyzers.
func assertAnalyzersAgree(t *testing.T, label string, inc, full *Analyzer, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if ci, cf := inc.Confidence(i), full.Confidence(i); ci != cf {
			t.Fatalf("%s: confidence(%d) = %v incremental, %v full", label, i, ci, cf)
		}
	}
	ic, fc := inc.FaultCandidates(), full.FaultCandidates()
	if len(ic) != len(fc) {
		t.Fatalf("%s: %d candidates incremental, %d full", label, len(ic), len(fc))
	}
	for i := range ic {
		if ic[i] != fc[i] {
			t.Fatalf("%s: candidate %d = %+v incremental, %+v full", label, i, ic[i], fc[i])
		}
	}
	want, wantOK := Candidate{}, false
	for _, c := range ic {
		if !inc.Judged(c.Entry) {
			want, wantOK = c, true
			break
		}
	}
	for _, side := range []struct {
		name string
		an   *Analyzer
	}{{"incremental", inc}, {"full", full}} {
		if got, ok := side.an.Next(); ok != wantOK || got != want {
			t.Fatalf("%s: %s Next() = %+v, %v; first unjudged candidate is %+v, %v",
				label, side.name, got, ok, want, wantOK)
		}
	}
	is, fs := inc.Slice().Ordered(), full.Slice().Ordered()
	if len(is) != len(fs) {
		t.Fatalf("%s: slice sizes %d incremental, %d full", label, len(is), len(fs))
	}
	for i := range is {
		if is[i] != fs[i] {
			t.Fatalf("%s: slice entry %d = %d incremental, %d full", label, i, is[i], fs[i])
		}
	}
}

// TestIncrementalMatchesFullFuzz drives paired analyzers — one
// incremental, one recomputing from scratch after every change — through
// random sequences of edge additions, pins and judgements over generated
// programs. Each round ends in a pruning pass shaped like PruneSlicing's:
// the top candidate is pinned (a delta pass with pins only) or judged.
func TestIncrementalMatchesFullFuzz(t *testing.T) {
	rnd := rand.New(rand.NewSource(12507342))
	subjects := 0
	var incReeval, fullReeval int64
	for i := 0; i < 80 && subjects < 20; i++ {
		src := testsupport.RandomProgram(rnd, testsupport.GenConfig{})
		c, err := interp.Compile(src)
		if err != nil {
			t.Fatalf("generator produced a bad program: %v", err)
		}
		in := testsupport.RandomInput(rnd, 24)
		r := interp.Run(c, interp.Options{Input: in, BuildTrace: true})
		if r.Err != nil || r.Trace == nil || len(r.Trace.Outputs) < 2 {
			continue
		}
		subjects++
		tr := r.Trace

		// Last output plays the wrong one; the rest are correct.
		wrong := *tr.OutputAt(len(tr.Outputs) - 1)
		var correct []trace.Output
		for j := 0; j < len(tr.Outputs)-1; j++ {
			correct = append(correct, *tr.OutputAt(j))
		}

		inc := New(c, depgraph.New(tr), nil, correct, wrong)
		inc.Incremental = true
		full := New(c, depgraph.New(tr), nil, correct, wrong)
		inc.Compute()
		full.Compute()
		assertAnalyzersAgree(t, "initial", inc, full, tr.Len())

		// Random delta rounds: the same edges and pins go to both sides;
		// only inc is allowed to take the delta path.
		for round := 0; round < 6; round++ {
			for k := rnd.Intn(3) + 1; k > 0; k-- {
				from := rnd.Intn(tr.Len())
				if from == 0 {
					continue
				}
				to := rnd.Intn(from) // DAG invariant: from > to
				kind := depgraph.Implicit
				if rnd.Intn(2) == 0 {
					kind = depgraph.StrongImplicit
				}
				inc.AddEdges(Arc{From: from, To: to, Kind: kind})
				full.AddEdges(Arc{From: from, To: to, Kind: kind})
			}
			if rnd.Intn(2) == 0 {
				e := rnd.Intn(tr.Len())
				inc.Pin(e)
				full.Pin(e)
			}
			if rnd.Intn(2) == 0 {
				e := rnd.Intn(tr.Len())
				inc.Judge(e)
				full.Judge(e)
			}
			inc.Compute()
			full.Compute()
			assertAnalyzersAgree(t, "round", inc, full, tr.Len())

			for step := 0; step < 8; step++ {
				c, ok := inc.Next()
				if !ok {
					break
				}
				if rnd.Intn(2) == 0 {
					inc.Judge(c.Entry)
					full.Judge(c.Entry)
				} else {
					inc.Pin(c.Entry)
					full.Pin(c.Entry)
					inc.Compute()
					full.Compute()
				}
				assertAnalyzersAgree(t, "pruning", inc, full, tr.Len())
			}
		}

		// Once every candidate is judged, neither side has a question left.
		for _, c := range inc.FaultCandidates() {
			inc.Judge(c.Entry)
			full.Judge(c.Entry)
		}
		assertAnalyzersAgree(t, "all judged", inc, full, tr.Len())

		// Both sides count re-prune passes; only the incremental side may
		// re-evaluate fewer entries than passes × trace length.
		ip, ir := inc.RepropStats()
		fp, fr := full.RepropStats()
		if ip == 0 || fp == 0 {
			t.Fatalf("re-prune passes not counted (inc %d, full %d)", ip, fp)
		}
		if fr != int64(fp)*int64(tr.Len()) {
			t.Fatalf("full analyzer re-evaluated %d entries over %d passes of %d", fr, fp, tr.Len())
		}
		incReeval += ir
		fullReeval += fr
	}
	if subjects < 10 {
		t.Fatalf("only %d usable subjects; generator too tame", subjects)
	}
	// The whole point: across the corpus, the delta path re-evaluates far
	// fewer entries than from-scratch recomputation.
	if incReeval >= fullReeval {
		t.Errorf("incremental re-evaluated %d entries, full %d: no win", incReeval, fullReeval)
	}
	t.Logf("re-evaluated entries: %d incremental vs %d full", incReeval, fullReeval)
}

// TestKindsChangeForcesFullRecompute: widening Kinds after a delta-driven
// Compute must fall back to a full pass and still agree with a fresh
// analyzer.
func TestKindsChangeForcesFullRecompute(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	src := testsupport.RandomProgram(rnd, testsupport.GenConfig{})
	c, err := interp.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	var r *interp.Result
	for try := 0; try < 40; try++ {
		r = interp.Run(c, interp.Options{Input: testsupport.RandomInput(rnd, 24), BuildTrace: true})
		if r.Err == nil && r.Trace != nil && len(r.Trace.Outputs) >= 2 {
			break
		}
		r = nil
	}
	if r == nil {
		t.Skip("no usable run")
	}
	tr := r.Trace
	wrong := *tr.OutputAt(len(tr.Outputs) - 1)
	var correct []trace.Output
	for j := 0; j < len(tr.Outputs)-1; j++ {
		correct = append(correct, *tr.OutputAt(j))
	}

	inc := New(c, depgraph.New(tr), nil, correct, wrong)
	inc.Incremental = true
	inc.Compute()
	inc.AddEdges(Arc{From: tr.Len() - 1, To: 0, Kind: depgraph.Implicit})
	inc.Compute()
	inc.Kinds |= depgraph.Potential // widen: next Compute must not trust the memo
	inc.Compute()

	full := New(c, depgraph.New(tr), nil, correct, wrong)
	full.Kinds |= depgraph.Potential
	full.AddEdges(Arc{From: tr.Len() - 1, To: 0, Kind: depgraph.Implicit})
	full.Compute()
	assertAnalyzersAgree(t, "kinds-widened", inc, full, tr.Len())
}
