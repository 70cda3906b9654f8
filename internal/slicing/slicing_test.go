package slicing

import (
	"reflect"
	"testing"

	"eol/internal/depgraph"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/testsupport"
	"eol/internal/trace"
)

// fig1 compiles and runs the paper's Figure 1 scenario and returns the
// slicing context, the graph, and the wrong output's seed entry.
func fig1(t *testing.T) (*Context, *depgraph.Graph, int, *interp.Compiled) {
	t.Helper()
	c := testsupport.Compile(t, testsupport.Fig1Faulty)
	fixed := testsupport.Compile(t, testsupport.Fig1Fixed)
	want := testsupport.Run(t, fixed, testsupport.Fig1Input).OutputValues()
	r := testsupport.Run(t, c, testsupport.Fig1Input)

	seq, missing, ok := FirstWrongOutput(r.OutputValues(), want)
	if !ok || missing {
		t.Fatalf("expected a wrong output; got %v want %v", r.OutputValues(), want)
	}
	if seq != 1 {
		t.Fatalf("first wrong output = %d, want 1", seq)
	}
	cx := NewContext(c, r.Trace)
	g := depgraph.New(r.Trace)
	return cx, g, FailureSeeds(r.Trace, seq), c
}

func TestFig1DynamicSliceMissesRootCause(t *testing.T) {
	cx, g, seed, c := fig1(t)
	ds := Dynamic(g, seed)

	root := testsupport.StmtID(t, c, "read() * 0")
	ifFlags := testsupport.StmtID(t, c, "if (saveOrigName)")
	setFlag := testsupport.StmtID(t, c, "flags = flags | 8")
	writeFlags := testsupport.StmtID(t, c, "outbuf[outcnt] = flags")
	zeroFlags := testsupport.StmtID(t, c, "flags = 0")

	if g.ContainsStmt(ds, root) {
		t.Errorf("DS must miss the root cause S%d (execution omission)", root)
	}
	if g.ContainsStmt(ds, ifFlags) {
		t.Errorf("DS must miss the omitting predicate S%d", ifFlags)
	}
	if g.ContainsStmt(ds, setFlag) {
		t.Errorf("DS must miss the omitted assignment S%d", setFlag)
	}
	if !g.ContainsStmt(ds, writeFlags) || !g.ContainsStmt(ds, zeroFlags) {
		t.Errorf("DS should contain the explicit chain (S%d, S%d)", writeFlags, zeroFlags)
	}
	_ = cx
}

func TestFig1RelevantSliceCapturesRootCause(t *testing.T) {
	cx, g, seed, c := fig1(t)
	rs := cx.Relevant(g, seed)

	root := testsupport.StmtID(t, c, "read() * 0")
	ifFlags := testsupport.StmtID(t, c, "if (saveOrigName)")

	if !g.ContainsStmt(rs, root) {
		t.Errorf("RS must contain the root cause S%d", root)
	}
	if !g.ContainsStmt(rs, ifFlags) {
		t.Errorf("RS must contain the omitting predicate S%d", ifFlags)
	}
	// RS is a superset of DS.
	ds := Dynamic(g, seed)
	ds.ForEach(func(i int) {
		if !rs.Has(i) {
			t.Fatalf("RS must be a superset of DS; entry %d missing", i)
		}
	})
	if rs.Len() <= ds.Len() {
		t.Errorf("RS (%d) should be strictly larger than DS (%d) here", rs.Len(), ds.Len())
	}
}

func TestFig1PotentialDepsMatchPaper(t *testing.T) {
	cx, _, seed, c := fig1(t)
	tr := cx.T

	// Both ifs render identically; the first is the paper's S4, the
	// second the paper's S7.
	var ifIDs []int
	for _, s := range c.Info.Stmts {
		if ast.StmtString(s) == "if (saveOrigName)" {
			ifIDs = append(ifIDs, s.ID())
		}
	}
	if len(ifIDs) != 2 {
		t.Fatalf("want 2 saveOrigName predicates, got %v", ifIDs)
	}
	ifFlags, ifName := ifIDs[0], ifIDs[1]

	// PD(flags use at "outbuf[outcnt] = flags") must contain the first if
	// (the paper's S4 -> S6 potential dependence).
	writeFlags := testsupport.StmtID(t, c, "outbuf[outcnt] = flags")
	u := tr.FindInstance(trace.Instance{Stmt: writeFlags, Occ: 1})
	pds := cx.PotentialDeps(u)
	if !hasPred(tr, pds, ifFlags) {
		t.Errorf("PD(S%d) should contain predicate S%d; got %v", writeFlags, ifFlags, pds)
	}

	// PD(wrong output use) must contain the second if (the paper's FALSE
	// potential dependence S7 -> S10, an artifact of whole-array
	// granularity).
	pds = cx.PotentialDeps(seed)
	if !hasPred(tr, pds, ifName) {
		t.Errorf("PD(wrong output) should contain predicate S%d (false potential dep); got %v", ifName, pds)
	}
	// ... and must NOT contain the first if: outbuf defs on its other
	// branch do not exist.
	if hasPred(tr, pds, ifFlags) {
		t.Errorf("PD(wrong output) must not contain predicate S%d", ifFlags)
	}
}

func hasPred(tr *trace.Trace, pds []PDep, stmt int) bool {
	for _, pd := range pds {
		if tr.At(pd.Pred).Inst.Stmt == stmt {
			return true
		}
	}
	return false
}

func TestFirstWrongOutput(t *testing.T) {
	cases := []struct {
		actual, expected []int64
		seq              int
		missing, ok      bool
	}{
		{[]int64{1, 2, 3}, []int64{1, 2, 3}, -1, false, false},
		{[]int64{1, 9, 3}, []int64{1, 2, 3}, 1, false, true},
		{[]int64{1, 2}, []int64{1, 2, 3}, 2, true, true},
		{[]int64{1, 2, 3, 4}, []int64{1, 2, 3}, 3, false, true},
		{nil, nil, -1, false, false},
		{nil, []int64{7}, 0, true, true},
	}
	for _, c := range cases {
		seq, missing, ok := FirstWrongOutput(c.actual, c.expected)
		if seq != c.seq || missing != c.missing || ok != c.ok {
			t.Errorf("FirstWrongOutput(%v, %v) = (%d,%v,%v), want (%d,%v,%v)",
				c.actual, c.expected, seq, missing, ok, c.seq, c.missing, c.ok)
		}
	}
}

// TestKilledDefinitionExcluded reproduces the paper's condition (iii)
// example: a definition after the predicate kills the branch's
// definition, so no potential dependence arises.
//
//	1: if (p) { 2: x = ...; }
//	4: x = ...;
//	6: ... = x;
func TestKilledDefinitionExcluded(t *testing.T) {
	src := `
func main() {
    var p = read();
    var x = 0;
    if (p) {
        x = 1;
    }
    x = 2;
    print(x);
}`
	c := testsupport.Compile(t, src)
	r := testsupport.Run(t, c, []int64{0})
	cx := NewContext(c, r.Trace)

	pr := testsupport.StmtID(t, c, "print(x)")
	u := r.Trace.FindInstance(trace.Instance{Stmt: pr, Occ: 1})
	pds := cx.PotentialDeps(u)
	ifID := testsupport.StmtID(t, c, "if (p)")
	if hasPred(r.Trace, pds, ifID) {
		t.Errorf("x's reaching def (x=2) occurs after the predicate was irrelevant: no PD expected, got %v", pds)
	}
}

// TestConditionIIIOrdering: the reaching definition must occur before the
// predicate instance, not merely before the use.
func TestConditionIIIOrdering(t *testing.T) {
	src := `
func main() {
    var p = read();
    var x = 0;
    x = 5;
    if (p) {
        x = 1;
    }
    print(x);
}`
	c := testsupport.Compile(t, src)
	r := testsupport.Run(t, c, []int64{0})
	cx := NewContext(c, r.Trace)

	pr := testsupport.StmtID(t, c, "print(x)")
	u := r.Trace.FindInstance(trace.Instance{Stmt: pr, Occ: 1})
	pds := cx.PotentialDeps(u)
	ifID := testsupport.StmtID(t, c, "if (p)")
	// x=5 precedes the if, and x=1 on the not-taken branch could reach
	// the print: PD must contain the if.
	if !hasPred(r.Trace, pds, ifID) {
		t.Errorf("PD(print) should contain the if; got %v", pds)
	}
}

// TestLoopInstanceExplosion verifies the dynamic-size blow-up phenomenon
// the paper describes: a predicate executed N times contributes up to N
// potential-dependence instances even though the static count is 1.
func TestLoopInstanceExplosion(t *testing.T) {
	src := `
var total;
func main() {
    var n = read();
    total = 0;
    var i = 0;
    while (i < n) {
        if (read()) {
            total = total + 1;
        }
        i = i + 1;
    }
    print(total);
}`
	c := testsupport.Compile(t, src)
	input := []int64{10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	r := testsupport.Run(t, c, input)
	cx := NewContext(c, r.Trace)

	pr := testsupport.StmtID(t, c, "print(total)")
	u := r.Trace.FindInstance(trace.Instance{Stmt: pr, Occ: 1})
	pds := cx.PotentialDeps(u)
	ifID := testsupport.StmtID(t, c, "if (read())")
	n := 0
	for _, pd := range pds {
		if r.Trace.At(pd.Pred).Inst.Stmt == ifID {
			n++
		}
	}
	if n != 10 {
		t.Errorf("expected 10 potential-dependence instances on the if (one per iteration), got %d", n)
	}
	// Static count: two unique predicate statements — the if, plus the
	// final while instance (had it evaluated true, one more iteration
	// could have redefined total).
	stmts := map[int]bool{}
	for _, pd := range pds {
		stmts[r.Trace.At(pd.Pred).Inst.Stmt] = true
	}
	whileID := testsupport.StmtID(t, c, "while (i < n)")
	if len(stmts) != 2 || !stmts[ifID] || !stmts[whileID] {
		t.Errorf("unique PD statements = %v, want {S%d, S%d}", stmts, ifID, whileID)
	}
}

func TestRelevantEqualsDynamicWithoutOmission(t *testing.T) {
	// A program with no branch-dependent definitions: RS == DS.
	src := `
func main() {
    var a = read();
    var b = a * 2;
    var c = b + 1;
    print(c);
}`
	c := testsupport.Compile(t, src)
	r := testsupport.Run(t, c, []int64{3})
	cx := NewContext(c, r.Trace)
	g := depgraph.New(r.Trace)
	seed := FailureSeeds(r.Trace, 0)
	ds := Dynamic(g, seed)
	rs := cx.Relevant(g, seed)
	if !reflect.DeepEqual(ds, rs) {
		t.Errorf("straight-line program: RS %v != DS %v", rs, ds)
	}
}
