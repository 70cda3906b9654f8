package align

import (
	"testing"

	"eol/internal/interp"
	"eol/internal/region"
	"eol/internal/testsupport"
	"eol/internal/trace"
)

// fig2Src is the MiniC analog of the paper's Figure 2. With input
// P=0,C1=0,C2=0, the if(P) branch is skipped; print(x) executes inside
// the doubly nested if at the end.
const fig2Src = `
func main() {
    var i = 0;
    var t = 0;
    var x = 0;
    var P = read();
    var C1 = read();
    var C2 = read();
    if (P) {
        t = 1;
        x = 5;
    }
    while (i < t) {
        var w = 1;
        if (C1) {
            w = 2;
        }
        i = i + 1;
    }
    if (1) {
        if (C2 == 0) {
            print(x);
        }
        var z = 9;
    }
}`

// fig2BSrc is the paper's execution (3) variant: the switched branch also
// sets C2 = 1, so print(x) does not execute in the switched run.
const fig2BSrc = `
func main() {
    var i = 0;
    var t = 0;
    var x = 0;
    var P = read();
    var C1 = read();
    var C2 = read();
    if (P) {
        t = 1;
        C2 = 1;
        x = 5;
    }
    while (i < t) {
        var w = 1;
        if (C1) {
            w = 2;
        }
        i = i + 1;
    }
    if (1) {
        if (C2 == 0) {
            print(x);
        }
        var z = 9;
    }
}`

func runBoth(t *testing.T, src string, input []int64, switchStmt int) (*trace.Trace, *trace.Trace, *interp.Compiled) {
	t.Helper()
	c := testsupport.Compile(t, src)
	orig := testsupport.Run(t, c, input)
	sw := interp.Run(c, interp.Options{
		Input: input, BuildTrace: true,
		Switch: &interp.SwitchPlan{Stmt: switchStmt, Occ: 1},
	})
	if sw.Err != nil {
		t.Fatalf("switched run: %v", sw.Err)
	}
	if !sw.SwitchApplied {
		t.Fatal("switch not applied")
	}
	return orig.Trace, sw.Trace, c
}

// TestFig2MatchFound: the match of the use of x (paper's 15(1)) exists in
// the switched execution (paper's execution (2)) even though the switch
// inserted a whole loop execution in between.
func TestFig2MatchFound(t *testing.T) {
	input := []int64{0, 0, 0}
	c := testsupport.Compile(t, fig2Src)
	ifP := testsupport.StmtID(t, c, "if (P)")
	prX := testsupport.StmtID(t, c, "print(x)")

	e, ep, _ := runBoth(t, fig2Src, input, ifP)
	u := e.FindInstance(trace.Instance{Stmt: prX, Occ: 1})
	if u < 0 {
		t.Fatal("print(x) not executed in original")
	}
	got, ok := Match(e, ep, trace.Instance{Stmt: ifP, Occ: 1}, u)
	if !ok {
		t.Fatal("match of print(x) not found in switched run")
	}
	if ep.At(got).Inst.Stmt != prX {
		t.Errorf("matched %v, want an instance of S%d", ep.At(got).Inst, prX)
	}
	// And the value changed: x is 5 in the switched run.
	if outs := ep.OutputsOf(got); len(outs) != 1 || outs[0].Value != 5 {
		t.Errorf("switched print outputs = %v, want [5]", outs)
	}
}

// TestFig2NoMatch: in the execution-(3) variant the switched branch flips
// C2, so the inner if takes the other branch and print(x) has no
// counterpart (the paper's "15(1) has no corresponding match in (3)").
func TestFig2NoMatch(t *testing.T) {
	input := []int64{0, 0, 0}
	c := testsupport.Compile(t, fig2BSrc)
	ifP := testsupport.StmtID(t, c, "if (P)")
	prX := testsupport.StmtID(t, c, "print(x)")

	e, ep, _ := runBoth(t, fig2BSrc, input, ifP)
	u := e.FindInstance(trace.Instance{Stmt: prX, Occ: 1})
	if _, ok := Match(e, ep, trace.Instance{Stmt: ifP, Occ: 1}, u); ok {
		t.Fatal("match must not be found: the governing branch outcome differs")
	}
	// But the enclosing region head (the inner if) itself matches.
	ifC2 := testsupport.StmtID(t, c, "if (C2 == 0)")
	v := e.FindInstance(trace.Instance{Stmt: ifC2, Occ: 1})
	got, ok := Match(e, ep, trace.Instance{Stmt: ifP, Occ: 1}, v)
	if !ok || ep.At(got).Inst.Stmt != ifC2 {
		t.Errorf("the if(C2==0) instance itself should match (got %v, ok=%v)", got, ok)
	}
}

// TestFig3SingleEntryMultipleExit: switching a predicate makes the loop
// break in its first iteration; the use inside the second part of the
// iteration has no match (sibling exhausted — the paper's Fig. 3 case).
const fig3Src = `
func main() {
    var P = read();
    var C0 = 0;
    var x = 1;
    if (P) {
        C0 = 1;
    }
    var i = 0;
    var t = 2;
    while (i < t) {
        if (C0) {
            break;
        }
        if (1) {
            print(x);
        }
        i = i + 1;
    }
    print(99);
}`

func TestFig3SingleEntryMultipleExit(t *testing.T) {
	input := []int64{0}
	c := testsupport.Compile(t, fig3Src)
	ifP := testsupport.StmtID(t, c, "if (P)")
	prX := testsupport.StmtID(t, c, "print(x)")
	pr99 := testsupport.StmtID(t, c, "print(99)")

	e, ep, _ := runBoth(t, fig3Src, input, ifP)
	u := e.FindInstance(trace.Instance{Stmt: prX, Occ: 1})
	if _, ok := Match(e, ep, trace.Instance{Stmt: ifP, Occ: 1}, u); ok {
		t.Fatal("print(x) must have no match after the switched run breaks out")
	}
	// The statement after the loop still matches.
	v := e.FindInstance(trace.Instance{Stmt: pr99, Occ: 1})
	got, ok := Match(e, ep, trace.Instance{Stmt: ifP, Occ: 1}, v)
	if !ok || ep.At(got).Inst.Stmt != pr99 {
		t.Errorf("print(99) should match across the loop (got %v ok=%v)", got, ok)
	}
}

// TestRecursionInsertion mirrors the paper's recursive-call discussion:
// the switched branch triggers a recursive call whose body contains the
// same statements, yet alignment must not confuse the recursive instance
// with the original one.
const recSrc = `
var depth;
func work(n) {
    depth = depth + 1;
    if (n > 0) {
        work(n - 1);
    }
    return 0;
}
func main() {
    var P = read();
    var arg = 0;
    if (P) {
        arg = 2;
    }
    work(arg);
    print(depth);
}`

func TestRecursionInsertion(t *testing.T) {
	input := []int64{0}
	c := testsupport.Compile(t, recSrc)
	ifP := testsupport.StmtID(t, c, "if (P)")
	pr := testsupport.StmtID(t, c, "print(depth)")
	inc := testsupport.StmtID(t, c, "depth = depth + 1")

	e, ep, _ := runBoth(t, recSrc, input, ifP)

	// print(depth) after the call matches.
	u := e.FindInstance(trace.Instance{Stmt: pr, Occ: 1})
	got, ok := Match(e, ep, trace.Instance{Stmt: ifP, Occ: 1}, u)
	if !ok || ep.At(got).Inst.Stmt != pr {
		t.Fatalf("print(depth) should match (ok=%v)", ok)
	}
	// The first "depth = depth + 1" (top-level call) matches the first
	// instance in the switched run, not a recursive one.
	w := e.FindInstance(trace.Instance{Stmt: inc, Occ: 1})
	got, ok = Match(e, ep, trace.Instance{Stmt: ifP, Occ: 1}, w)
	if !ok {
		t.Fatal("outer depth increment should match")
	}
	if ep.At(got).Inst != (trace.Instance{Stmt: inc, Occ: 1}) {
		t.Errorf("matched %v, want S%d#1 (the outer activation)", ep.At(got).Inst, inc)
	}
}

// TestSelfMatchIdentity: aligning a trace against an identical re-run maps
// every entry to itself (property over all entries).
func TestSelfMatchIdentity(t *testing.T) {
	input := []int64{1, 0, 1}
	c := testsupport.Compile(t, fig2Src)
	ifP := testsupport.StmtID(t, c, "if (P)")
	r1 := testsupport.Run(t, c, input)
	r2 := testsupport.Run(t, c, input)

	// Use the real if(P) instance as the "switch point"; since nothing is
	// actually switched the traces are identical and every entry after p
	// must match itself.
	p := trace.Instance{Stmt: ifP, Occ: 1}
	pIdx := r1.Trace.FindInstance(p)
	for u := 0; u < r1.Trace.Len(); u++ {
		if r1.Trace.Ancestry().IsAncestor(pIdx, u) && u != pIdx {
			continue // inside p's region: out of scope for Match
		}
		got, ok := Match(r1.Trace, r2.Trace, p, u)
		if !ok {
			t.Fatalf("entry %d (%v) did not match itself", u, r1.Trace.At(u).Inst)
		}
		if got != u {
			t.Fatalf("entry %d matched %d", u, got)
		}
	}
}

// TestRegionGrammar: the region decomposition satisfies Definition 3 —
// every member of a region's CD list is directly control dependent on the
// region head, and subregions partition the region body.
func TestRegionGrammar(t *testing.T) {
	input := []int64{1, 1, 0}
	c := testsupport.Compile(t, fig2Src)
	r := testsupport.Run(t, c, input)
	tr := r.Trace

	whole := region.Whole(tr)
	var checkRegion func(reg region.Region)
	seen := 0
	checkRegion = func(reg region.Region) {
		for sub, ok := reg.FirstSub(); ok; sub, ok = sub.Sibling() {
			seen++
			if !reg.Contains(sub.Head) {
				t.Fatalf("subregion head %d not contained in parent %v", sub.Head, reg)
			}
			if !reg.IsRoot() && int(tr.At(sub.Head).Parent) != reg.Head {
				t.Fatalf("subregion head %d has parent %d, want %d", sub.Head, tr.At(sub.Head).Parent, reg.Head)
			}
			checkRegion(sub)
		}
	}
	checkRegion(whole)
	if seen != tr.Len() {
		t.Errorf("region tree covers %d entries, trace has %d", seen, tr.Len())
	}
	if whole.Size() != tr.Len() {
		t.Errorf("root region size %d != trace length %d", whole.Size(), tr.Len())
	}
}

// TestMatchEdgeCases covers the non-walk branches of Match.
func TestMatchEdgeCases(t *testing.T) {
	input := []int64{0, 0, 0}
	c := testsupport.Compile(t, fig2Src)
	ifP := testsupport.StmtID(t, c, "if (P)")
	e, ep, _ := runBoth(t, fig2Src, input, ifP)
	p := trace.Instance{Stmt: ifP, Occ: 1}
	pIdx := e.FindInstance(p)

	// u == p matches p' itself.
	if m, ok := Match(e, ep, p, pIdx); !ok || ep.At(m).Inst != p {
		t.Errorf("Match(p) = (%d, %v)", m, ok)
	}
	// Unknown predicate instance: not found.
	if _, ok := Match(e, ep, trace.Instance{Stmt: ifP, Occ: 99}, pIdx); ok {
		t.Error("nonexistent switch instance should not match")
	}
	// MatchInstance wrapper.
	w1 := testsupport.StmtID(t, c, "while (i < t)")
	u := e.FindInstance(trace.Instance{Stmt: w1, Occ: 1})
	inst, ok := MatchInstance(e, ep, p, u)
	if !ok || inst.Stmt != w1 {
		t.Errorf("MatchInstance = (%v, %v)", inst, ok)
	}
	// An ancestor of p matches itself (prefix identity).
	var anc int = -1
	if par := int(e.At(pIdx).Parent); par >= 0 {
		anc = par
	}
	if anc >= 0 {
		if m, ok := Match(e, ep, p, anc); !ok || m != anc {
			t.Errorf("ancestor match = (%d, %v), want identity", m, ok)
		}
	}
}
