package confidence

import (
	"testing"

	"eol/internal/depgraph"
	"eol/internal/interp"
	"eol/internal/testsupport"
	"eol/internal/trace"
)

// fig4Src is the paper's Figure 4:
//
//  10. a = ...        C = f(range(a))
//  20. b = a % 2;     C = 1
//  30. c = a + 2;     C = 0
//  40. print(b)       correct
//  41. print(c)       wrong
const fig4Src = `
func main() {
    var a = read();
    var b = a % 2;
    var c = a + 2;
    print(b);
    print(c);
}`

// fig4 returns an analyzer for the Figure 4 run with a = 1 and a profile
// over a ∈ {1,3,5,7}.
func fig4(t *testing.T) (*Analyzer, *interp.Compiled, *trace.Trace) {
	t.Helper()
	c := testsupport.Compile(t, fig4Src)
	prof := NewProfile()
	for _, v := range []int64{1, 3, 5, 7} {
		prof.AddTrace(testsupport.Run(t, c, []int64{v}).Trace)
	}
	r := testsupport.Run(t, c, []int64{1})
	g := depgraph.New(r.Trace)
	// print(b) produced 1 (correct); print(c) produced 3, expected 5.
	correct := []trace.Output{*r.Trace.OutputAt(0)}
	wrong := *r.Trace.OutputAt(1)
	a := New(c, g, prof, correct, wrong)
	a.Compute()
	return a, c, r.Trace
}

func entryOf(t *testing.T, c *interp.Compiled, tr *trace.Trace, frag string) int {
	t.Helper()
	id := testsupport.StmtID(t, c, frag)
	i := tr.FindInstance(trace.Instance{Stmt: id, Occ: 1})
	if i < 0 {
		t.Fatalf("instance of %q not found", frag)
	}
	return i
}

func TestFig4Confidences(t *testing.T) {
	a, c, tr := fig4(t)

	b := entryOf(t, c, tr, "var b = a % 2")
	cc := entryOf(t, c, tr, "var c = a + 2")
	av := entryOf(t, c, tr, "var a = read()")

	if got := a.Confidence(b); got != 1 {
		t.Errorf("C(b = a %% 2) = %v, want 1 (feeds the correct output)", got)
	}
	if got := a.Confidence(cc); got != 0 {
		t.Errorf("C(c = a + 2) = %v, want 0 (influences only the wrong output)", got)
	}
	got := a.Confidence(av)
	if got <= 0 || got >= 1 {
		t.Errorf("C(a) = %v, want fractional (range-based, Fig. 4's statement 10)", got)
	}
	// With range 4 and a %2 consumer, alt = range/2 = 2: C = 1 - log2/log4 = 0.5.
	if got < 0.45 || got > 0.55 {
		t.Errorf("C(a) = %v, want ≈0.5 for range 4 under %%2", got)
	}
}

func TestFig4Ranking(t *testing.T) {
	a, c, tr := fig4(t)
	cands := a.FaultCandidates()
	if len(cands) < 3 {
		t.Fatalf("candidates = %v, want ≥3", cands)
	}
	// Most suspicious first: the wrong print (conf 0, dist 0), then
	// c = a+2 (conf 0, dist 1), then a (fractional).
	wrongPrint := entryOf(t, c, tr, "print(c)")
	cc := entryOf(t, c, tr, "var c = a + 2")
	av := entryOf(t, c, tr, "var a = read()")
	if cands[0].Entry != wrongPrint {
		t.Errorf("top candidate = %d, want the wrong print %d", cands[0].Entry, wrongPrint)
	}
	if cands[1].Entry != cc {
		t.Errorf("second candidate = %d, want c=a+2 at %d", cands[1].Entry, cc)
	}
	if cands[2].Entry != av {
		t.Errorf("third candidate = %d, want a at %d", cands[2].Entry, av)
	}
	// The pinned b-assignment must be pruned from the candidates.
	b := entryOf(t, c, tr, "var b = a % 2")
	for _, cand := range cands {
		if cand.Entry == b {
			t.Errorf("pinned entry %d must be pruned from candidates", b)
		}
	}
}

// TestOneToOneChain: correctness propagates through a chain of invertible
// operations and pins the whole chain.
func TestOneToOneChain(t *testing.T) {
	src := `
func main() {
    var a = read();
    var b = a + 3;
    var c = b ^ 5;
    var d = -c;
    var e = a * 0;    // root cause feeding the wrong output
    print(d);
    print(e);
}`
	c := testsupport.Compile(t, src)
	r := testsupport.Run(t, c, []int64{7})
	g := depgraph.New(r.Trace)
	a := New(c, g, NewProfile(), []trace.Output{*r.Trace.OutputAt(0)}, *r.Trace.OutputAt(1))
	a.Compute()

	for _, frag := range []string{"var a = read()", "var b = a + 3", "var c = b ^ 5", "var d = -c"} {
		e := entryOf(t, c, r.Trace, frag)
		if got := a.Confidence(e); got != 1 {
			t.Errorf("C(%s) = %v, want 1 (one-to-one chain to correct output)", frag, got)
		}
	}
	bad := entryOf(t, c, r.Trace, "var e = a * 0")
	if got := a.Confidence(bad); got != 0 {
		t.Errorf("C(e = a*0) = %v, want 0", got)
	}
	// The candidate list must now be tiny: the wrong print and e only.
	cands := a.FaultCandidates()
	if len(cands) != 2 {
		t.Errorf("candidates = %v, want exactly the wrong print and e", cands)
	}
}

// TestUnpinnedOperandBlocksExactPropagation: y = a + b with only y's
// value evidenced correct cannot pin either operand exactly.
func TestUnpinnedOperandBlocksExactPropagation(t *testing.T) {
	src := `
func main() {
    var a = read();
    var b = read();
    var y = a + b;
    var w = a - 100;
    print(y);
    print(w);
}`
	c := testsupport.Compile(t, src)
	r := testsupport.Run(t, c, []int64{3, 4})
	g := depgraph.New(r.Trace)
	a := New(c, g, NewProfile(), []trace.Output{*r.Trace.OutputAt(0)}, *r.Trace.OutputAt(1))
	a.Compute()

	av := entryOf(t, c, r.Trace, "var a = read()")
	bv := entryOf(t, c, r.Trace, "var b = read()")
	if got := a.Confidence(av); got >= 1 {
		t.Errorf("C(a) = %v, want < 1 (sibling operand b unpinned)", got)
	}
	if got := a.Confidence(bv); got >= 1 {
		t.Errorf("C(b) = %v, want < 1", got)
	}
	// But both still get partial credit (injective consumers).
	if got := a.Confidence(av); got <= 0 {
		t.Errorf("C(a) = %v, want > 0", got)
	}
}

// TestMarkBenign: marking an instance benign pins it and, through the
// one-to-one fixpoint, unlocks exact propagation to its sibling operand.
func TestMarkBenign(t *testing.T) {
	src := `
func main() {
    var a = read();
    var b = read();
    var y = a + b;
    var w = b * 0;
    print(y);
    print(w);
}`
	c := testsupport.Compile(t, src)
	r := testsupport.Run(t, c, []int64{3, 4})
	g := depgraph.New(r.Trace)
	an := New(c, g, NewProfile(), []trace.Output{*r.Trace.OutputAt(0)}, *r.Trace.OutputAt(1))
	an.Compute()

	av := entryOf(t, c, r.Trace, "var a = read()")
	bv := entryOf(t, c, r.Trace, "var b = read()")
	if an.Confidence(bv) >= 1 {
		t.Fatalf("precondition: b unpinned, got %v", an.Confidence(bv))
	}
	an.Pin(av)
	an.Compute()
	if got := an.Confidence(av); got != 1 {
		t.Errorf("benign a: C = %v, want 1", got)
	}
	if got := an.Confidence(bv); got != 1 {
		t.Errorf("after pinning a, y's other operand b should pin too; C = %v", got)
	}
}

// TestNoPropagationOverPotentialEdges: confidence must flow only along
// explicit and verified-implicit edges; an (unverified) potential edge
// must not launder confidence (the paper's §3.2 argument).
func TestNoPropagationOverPotentialEdges(t *testing.T) {
	c := testsupport.Compile(t, testsupport.Fig1Faulty)
	r := testsupport.Run(t, c, testsupport.Fig1Input)
	g := depgraph.New(r.Trace)

	// Add the FALSE potential edge S7 -> S9-style: from the correct
	// print to the second if.
	tr := r.Trace
	correct := []trace.Output{*tr.OutputAt(0)}
	wrong := *tr.OutputAt(1)
	an := New(c, g, NewProfile(), correct, wrong)
	an.Compute()

	// The root cause entry:
	root := entryOf(t, c, tr, "read() * 0")
	if got := an.Confidence(root); got >= 1 {
		t.Fatalf("root cause pinned before adding edges: %v", got)
	}

	// Even adding a potential edge from the correct print to the root
	// cause must not change its confidence, because Kinds excludes
	// Potential.
	g.AddEdge(correct[0].Entry, root, depgraph.Potential)
	an.Compute()
	if got := an.Confidence(root); got >= 1 {
		t.Errorf("potential edge laundered confidence onto the root cause: %v", got)
	}
}

func TestProfileRange(t *testing.T) {
	p := NewProfile()
	if p.Range(1) != 2 {
		t.Errorf("empty profile range = %d, want 2", p.Range(1))
	}
	c := testsupport.Compile(t, fig4Src)
	for _, v := range []int64{2, 4, 6, 8, 10} {
		p.AddTrace(testsupport.Run(t, c, []int64{v}).Trace)
	}
	aID := testsupport.StmtID(t, c, "var a = read()")
	if got := p.Range(aID); got != 5 {
		t.Errorf("range(a) = %d, want 5", got)
	}
	var nilProf *Profile
	if nilProf.Range(1) != 2 {
		t.Error("nil profile must default to range 2")
	}
}
