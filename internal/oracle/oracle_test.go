package oracle

import (
	"testing"

	"eol/internal/cfg"
	"eol/internal/interp"
	"eol/internal/testsupport"
	"eol/internal/trace"
)

func TestSelfPairingIsBenign(t *testing.T) {
	c := testsupport.Compile(t, testsupport.Fig1Fixed)
	r1 := testsupport.Run(t, c, testsupport.Fig1Input)
	r2 := testsupport.Run(t, c, testsupport.Fig1Input)
	p := Pair(r1.Trace, r2.Trace)
	for e := 0; e < r1.Trace.Len(); e++ {
		if p.Match(e) != e {
			t.Fatalf("self-pairing matched %d to %d", e, p.Match(e))
		}
		if !p.Benign(e) {
			t.Fatalf("self-pairing marked %d corrupted", e)
		}
	}
	if len(p.Corrupted()) != 0 {
		t.Errorf("corrupted = %v, want none", p.Corrupted())
	}
}

// forest builds a finished trace from (statement, parent, branch)
// triples, numbering each statement's occurrences in entry order.
func forest(nodes [][3]int) *trace.Trace {
	tr := trace.New()
	occ := map[int]int{}
	for _, n := range nodes {
		occ[n[0]]++
		tr.Append(trace.Entry{Inst: trace.Instance{Stmt: n[0], Occ: occ[n[0]]},
			Parent: int32(n[1]), Branch: cfg.Label(n[2])})
	}
	tr.Finish()
	return tr
}

// TestPairNestedSiblings pins the lockstep walk on nested sibling
// regions: siblings pair positionally, each next sibling starting where
// the previous one's region ends, so a region with extra descendants
// (S10 runs twice in the faulty run) does not shift the pairing of the
// siblings after it, and a head whose branch differs pairs without its
// body.
func TestPairNestedSiblings(t *testing.T) {
	T, F, N := int(cfg.True), int(cfg.False), int(cfg.None)
	faulty := forest([][3]int{
		{1, -1, T}, // 0
		{2, 0, N},  // 1
		{3, 0, T},  // 2
		{4, 2, T},  // 3
		{10, 3, N}, // 4
		{10, 3, N}, // 5: no counterpart
		{5, 2, N},  // 6
		{6, -1, F}, // 7: branch differs from the correct run
		{8, 7, N},  // 8: not descended into
		{11, -1, N},
	})
	correct := forest([][3]int{
		{1, -1, T},
		{2, 0, N},
		{3, 0, T},
		{4, 2, T},
		{10, 3, N},
		{5, 2, N},
		{6, -1, T},
		{9, 6, N},
		{11, -1, N},
	})
	p := Pair(faulty, correct)
	for e, want := range []int{0, 1, 2, 3, 4, -1, 5, 6, -1, 8} {
		if got := p.Match(e); got != want {
			t.Errorf("Match(%d) = %d, want %d", e, got, want)
		}
	}
}

func TestFaultyVsCorrectPairing(t *testing.T) {
	faulty := testsupport.Compile(t, testsupport.Fig1Faulty)
	correct := testsupport.Compile(t, testsupport.Fig1Fixed)
	fr := testsupport.Run(t, faulty, testsupport.Fig1Input)
	cr := testsupport.Run(t, correct, testsupport.Fig1Input)
	p := Pair(fr.Trace, cr.Trace)

	mustBeCorrupted := []string{
		"read() * 0",             // the root cause produces 0 vs 1
		"outbuf[outcnt] = flags", // writes 0 vs 8
		"print(outbuf[1])",       // prints 0 vs 8
	}
	for _, frag := range mustBeCorrupted {
		id := testsupport.StmtID(t, faulty, frag)
		idx := fr.Trace.FindInstance(trace.Instance{Stmt: id, Occ: 1})
		if p.Benign(idx) {
			t.Errorf("%q must be corrupted", frag)
		}
	}
	mustBeBenign := []string{
		"var deflated = 8",
		"flags = 0",
		"outbuf[outcnt] = method",
		"print(outbuf[0])",
	}
	for _, frag := range mustBeBenign {
		id := testsupport.StmtID(t, faulty, frag)
		idx := fr.Trace.FindInstance(trace.Instance{Stmt: id, Occ: 1})
		if !p.Benign(idx) {
			t.Errorf("%q must be benign", frag)
		}
	}
	// The branch that diverged: the first if took F vs T => corrupted,
	// and its correct-run children are unpaired (they don't exist in the
	// faulty run at all).
	ifID := testsupport.StmtID(t, faulty, "if (saveOrigName)")
	ifIdx := fr.Trace.FindInstance(trace.Instance{Stmt: ifID, Occ: 1})
	if p.Benign(ifIdx) {
		t.Error("the omitting predicate must be corrupted (branch differs)")
	}
}

func TestOmittedIterationsUnpaired(t *testing.T) {
	// The faulty run executes MORE than the correct one (an omitted
	// break): extra iterations must be corrupted.
	faultySrc := `
func main() {
    var n = read() * 0;   // fault: kills the early exit
    var i = 0;
    while (i < 5) {
        if (n > 0 && i >= 2) {
            break;
        }
        i = i + 1;
    }
    print(i);
}`
	correctSrc := `
func main() {
    var n = read();
    var i = 0;
    while (i < 5) {
        if (n > 0 && i >= 2) {
            break;
        }
        i = i + 1;
    }
    print(i);
}`
	faulty := testsupport.Compile(t, faultySrc)
	correct := testsupport.Compile(t, correctSrc)
	fr := testsupport.Run(t, faulty, []int64{1})
	cr := testsupport.Run(t, correct, []int64{1})
	p := Pair(fr.Trace, cr.Trace)

	// Iterations beyond the correct run's break are unpaired/corrupted.
	incID := testsupport.StmtID(t, faulty, "i = i + 1")
	last := fr.Trace.FindInstance(trace.Instance{Stmt: incID, Occ: 5})
	if last < 0 {
		t.Fatal("faulty run should execute 5 increments")
	}
	if p.Benign(last) {
		t.Error("extra iteration must be corrupted")
	}
	if p.Match(last) >= 0 {
		t.Error("extra iteration must be unpaired")
	}
	// The first increment matches and is benign.
	first := fr.Trace.FindInstance(trace.Instance{Stmt: incID, Occ: 1})
	if !p.Benign(first) {
		t.Error("first iteration should be benign")
	}
}

func TestStateOracleCachesPerTrace(t *testing.T) {
	faulty := testsupport.Compile(t, testsupport.Fig1Faulty)
	correct := testsupport.Compile(t, testsupport.Fig1Fixed)
	cr := testsupport.Run(t, correct, testsupport.Fig1Input)
	o := &StateOracle{Correct: cr.Trace}

	r1 := testsupport.Run(t, faulty, testsupport.Fig1Input)
	rootID := testsupport.StmtID(t, faulty, "read() * 0")
	idx := r1.Trace.FindInstance(trace.Instance{Stmt: rootID, Occ: 1})
	if o.IsBenign(r1.Trace, idx) {
		t.Error("root cause benign?")
	}
	// A different trace instance triggers a fresh pairing.
	r2 := interp.Run(faulty, interp.Options{Input: testsupport.Fig1Input, BuildTrace: true})
	if o.IsBenign(r2.Trace, idx) {
		t.Error("root cause benign on re-run?")
	}
}
