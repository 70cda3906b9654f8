package slicing

import (
	"testing"

	"eol/internal/cfg"
	"eol/internal/depgraph"
	"eol/internal/testsupport"
	"eol/internal/trace"
)

// TestUnionPDWithCoveringSuite: when the test suite exercises the omitted
// branch, the union graph supports the same potential dependence as the
// static analysis (the paper's prototype behavior).
func TestUnionPDWithCoveringSuite(t *testing.T) {
	c := testsupport.Compile(t, testsupport.Fig1Faulty)
	fixed := testsupport.Compile(t, testsupport.Fig1Fixed)

	// Build the union graph from CORRECT-version runs that take the
	// saveOrigName branch — exercising flags|=8 reaching the store.
	u := NewUnionGraph()
	for _, in := range [][]int64{{1}, {0}} {
		r := testsupport.Run(t, fixed, in)
		u.AddTrace(r.Trace)
	}
	if u.Traces != 2 || u.NumReachedPairs() == 0 {
		t.Fatalf("union graph empty: %d traces, %d pairs", u.Traces, u.NumReachedPairs())
	}

	r := testsupport.Run(t, c, testsupport.Fig1Input)
	cx := NewContext(c, r.Trace)
	cx.Union = u

	writeFlags := testsupport.StmtID(t, c, "outbuf[outcnt] = flags")
	uIdx := r.Trace.FindInstance(trace.Instance{Stmt: writeFlags, Occ: 1})
	pds := cx.PotentialDeps(uIdx)
	ifFlags := testsupport.StmtID(t, c, "if (saveOrigName)")
	if !hasPred(r.Trace, pds, ifFlags) {
		t.Errorf("union-based PD should include the if: %v", pds)
	}

	// RS under union PD still captures the root cause.
	g := depgraph.New(r.Trace)
	seed := FailureSeeds(r.Trace, 1)
	rs := cx.Relevant(g, seed)
	root := testsupport.StmtID(t, c, "read() * 0")
	if !g.ContainsStmt(rs, root) {
		t.Error("union-based RS missed the root cause despite coverage")
	}
}

// TestUnionPDCoverageSensitivity: if the suite never exercises the
// omitted branch, the union graph cannot support the dependence — the
// test-suite sensitivity static analysis avoids.
func TestUnionPDCoverageSensitivity(t *testing.T) {
	c := testsupport.Compile(t, testsupport.Fig1Faulty)

	// Suite of FAULTY runs: saveOrigName is always 0, the branch never
	// executes, no flags|=8 -> store dependence is ever observed.
	u := NewUnionGraph()
	for _, in := range [][]int64{{1}, {0}, {5}} {
		r := testsupport.Run(t, c, in)
		u.AddTrace(r.Trace)
	}

	r := testsupport.Run(t, c, testsupport.Fig1Input)
	cx := NewContext(c, r.Trace)
	cx.Union = u

	writeFlags := testsupport.StmtID(t, c, "outbuf[outcnt] = flags")
	uIdx := r.Trace.FindInstance(trace.Instance{Stmt: writeFlags, Occ: 1})
	ifFlags := testsupport.StmtID(t, c, "if (saveOrigName)")
	if hasPred(r.Trace, cx.PotentialDeps(uIdx), ifFlags) {
		t.Error("union graph cannot know about a never-exercised dependence")
	}
	// The static analysis (no union) does find it.
	cx.Union = nil
	if !hasPred(r.Trace, cx.PotentialDeps(uIdx), ifFlags) {
		t.Error("static PD lost the dependence")
	}
}

// TestUnionGovernedTransitivity: statements nested two predicates deep
// are recorded as governed by both.
func TestUnionGovernedTransitivity(t *testing.T) {
	src := `
func main() {
    var a = read();
    var b = read();
    var x = 0;
    if (a) {
        if (b) {
            x = 1;
        }
    }
    print(x);
}`
	c := testsupport.Compile(t, src)
	u := NewUnionGraph()
	u.AddTrace(testsupport.Run(t, c, []int64{1, 1}).Trace)

	pr := testsupport.StmtID(t, c, "print(x)")
	xSym := 0
	for _, s := range c.Info.Symbols {
		if s.Name == "x" {
			xSym = s.ID
		}
	}
	ifA := testsupport.StmtID(t, c, "if (a)")
	ifB := testsupport.StmtID(t, c, "if (b)")

	// In a run where both ifs take F (the def not exercised along that
	// path), the union from the T-run still knows x=1 was governed by
	// both predicates' T branches and reached the print.
	if !u.PotentialBranch(ifA, cfg.False, pr, xSym) {
		t.Error("outer predicate evidence missing")
	}
	if !u.PotentialBranch(ifB, cfg.False, pr, xSym) {
		t.Error("inner predicate evidence missing")
	}
}

// TestUnionAcrossRuns: dependences from different runs union together.
func TestUnionAcrossRuns(t *testing.T) {
	src := `
func main() {
    var m = read();
    var x = 0;
    if (m == 1) { x = 1; }
    if (m == 2) { x = 2; }
    print(x);
}`
	c := testsupport.Compile(t, src)
	u := NewUnionGraph()
	u.AddTrace(testsupport.Run(t, c, []int64{1}).Trace)
	before := u.NumReachedPairs()
	u.AddTrace(testsupport.Run(t, c, []int64{2}).Trace)
	if u.NumReachedPairs() <= before {
		t.Error("second run added no pairs")
	}
}
