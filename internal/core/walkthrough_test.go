package core

import (
	"testing"

	"eol/internal/confidence"
	"eol/internal/depgraph"
	"eol/internal/implicit"
	"eol/internal/slicing"
	"eol/internal/testsupport"
	"eol/internal/trace"
)

// TestPaperWalkthrough replays the paper's §3.2 numbered computation
// steps on the Fig. 1 program, asserting each intermediate state:
//
//	(1) prune the dynamic slice of the wrong output — the one-to-one
//	    analog (the DEFLATED/method chain) is removed;
//	(2) the wrong output is selected for expansion; PD = {S7};
//	    VerifyDep(S7, S10) returns NOT_ID, no edges are added;
//	(3) the flags store is selected; PD = {S4};
//	    VerifyDep(S4, S6) returns STRONG_ID, the edge is added;
//	(4) the re-pruned slice contains the root cause and explains the
//	    failure.
func TestPaperWalkthrough(t *testing.T) {
	c := testsupport.Compile(t, testsupport.Fig1Faulty)
	fixed := testsupport.Compile(t, testsupport.Fig1Fixed)
	expected := testsupport.Run(t, fixed, testsupport.Fig1Input).OutputValues()
	r := testsupport.Run(t, c, testsupport.Fig1Input)
	tr := r.Trace

	// Paper statement names.
	s1 := testsupport.StmtID(t, c, "read() * 0")                  // S1: root cause
	s2 := testsupport.StmtID(t, c, "flags = 0")                   // S2
	s4 := testsupport.StmtID(t, c, "if (saveOrigName)")           // S4 (first if)
	s6 := testsupport.StmtID(t, c, "outbuf[outcnt] = flags")      // S6
	s10 := testsupport.StmtID(t, c, "print(outbuf[1])")           // S10
	s3analog := testsupport.StmtID(t, c, "var method = deflated") // one-to-one to correct output

	seq, _, ok := slicing.FirstWrongOutput(r.OutputValues(), expected)
	if !ok || seq != 1 {
		t.Fatalf("failure detection: seq=%d ok=%v", seq, ok)
	}
	wrong := *tr.OutputAt(seq)
	correct := []trace.Output{*tr.OutputAt(0)}
	g := depgraph.New(tr)

	// --- Step (1): prune the dynamic slice.
	ds := slicing.Dynamic(g, wrong.Entry)
	if g.ContainsStmt(ds, s1) || g.ContainsStmt(ds, s4) {
		t.Fatal("precondition: DS must miss the root cause and the predicate")
	}
	an := confidence.New(c, g, nil, correct, wrong)
	an.Compute()
	pruned := depgraph.NewSet(tr.Len())
	for _, cand := range an.FaultCandidates() {
		pruned.Add(cand.Entry)
	}
	if g.ContainsStmt(pruned, s3analog) {
		t.Error("step 1: the one-to-one analog of S3 must be pruned (it feeds the correct output)")
	}
	for _, must := range []int{s2, s6, s10} {
		if !g.ContainsStmt(ds, must) {
			t.Errorf("step 1: DS missing the paper's S%d analog (stmt %d)", must, must)
		}
	}

	ver := &implicit.Verifier{
		C: c, Input: testsupport.Fig1Input, Orig: tr,
		WrongOut: wrong, Vexp: expected[seq], HasVexp: true,
	}
	cx := slicing.NewContext(c, tr)

	// --- Step (2): expand the wrong output; the false dependence is
	// rejected.
	pds := cx.PotentialDeps(wrong.Entry)
	if len(pds) == 0 {
		t.Fatal("step 2: PD(S10) must not be empty")
	}
	for _, pd := range pds {
		v := ver.Verify(implicit.Request{Pred: pd.Pred, Use: wrong.Entry, UseSym: pd.UseSym, UseElem: pd.UseElem})
		if v != implicit.NotID {
			t.Errorf("step 2: VerifyDep(%v, S10) = %v, want NOT_ID", tr.At(pd.Pred).Inst, v)
		}
	}

	// --- Step (3): expand the flags store; the strong implicit
	// dependence on S4 is found and added.
	s6idx := tr.FindInstance(trace.Instance{Stmt: s6, Occ: 1})
	pds = cx.PotentialDeps(s6idx)
	if len(pds) != 1 || tr.At(pds[0].Pred).Inst.Stmt != s4 {
		t.Fatalf("step 3: PD(S6) = %v, want exactly {S4#1}", pds)
	}
	v := ver.Verify(implicit.Request{Pred: pds[0].Pred, Use: s6idx, UseSym: pds[0].UseSym, UseElem: pds[0].UseElem})
	if v != implicit.StrongID {
		t.Fatalf("step 3: VerifyDep(S4, S6) = %v, want STRONG_ID", v)
	}
	g.AddEdge(s6idx, pds[0].Pred, depgraph.StrongImplicit)

	// --- Step (4): the new pruned slice contains the root cause and the
	// whole cause-effect chain {S1, S2, S4, S6, S10}.
	an.Compute()
	final := depgraph.NewSet(tr.Len())
	for _, cand := range an.FaultCandidates() {
		final.Add(cand.Entry)
	}
	for _, must := range []int{s1, s2, s4, s6, s10} {
		if !g.ContainsStmt(final, must) {
			t.Errorf("step 4: final slice missing the paper's chain member (stmt %d)", must)
		}
	}
	// And the chain explains the failure: the root cause reaches the
	// wrong output in the expanded graph.
	closure := g.BackwardSlice(depgraph.Explicit|depgraph.StrongImplicit, wrong.Entry)
	rootIdx := tr.FindInstance(trace.Instance{Stmt: s1, Occ: 1})
	if !closure.Has(rootIdx) {
		t.Error("step 4: the root cause is not reachable from the failure in the expanded graph")
	}
}
