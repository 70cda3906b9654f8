package implicit

import (
	"testing"

	"eol/internal/cfg"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/slicing"
	"eol/internal/testsupport"
	"eol/internal/trace"
	"eol/internal/vm"
)

// fig1Verifier runs the Figure 1 scenario and prepares a Verifier with
// the wrong output and expected value filled in.
func fig1Verifier(t *testing.T) (*Verifier, *interp.Compiled) {
	t.Helper()
	c := testsupport.Compile(t, testsupport.Fig1Faulty)
	fixed := testsupport.Compile(t, testsupport.Fig1Fixed)
	want := testsupport.Run(t, fixed, testsupport.Fig1Input).OutputValues()
	r := testsupport.Run(t, c, testsupport.Fig1Input)

	seq, _, ok := slicing.FirstWrongOutput(r.OutputValues(), want)
	if !ok {
		t.Fatal("no failure")
	}
	return &Verifier{
		C:        c,
		Input:    testsupport.Fig1Input,
		Orig:     r.Trace,
		WrongOut: *r.Trace.OutputAt(seq),
		Vexp:     want[seq],
		HasVexp:  true,
	}, c
}

func symID(t *testing.T, c *interp.Compiled, name string) int {
	t.Helper()
	for _, s := range c.Info.Symbols {
		if s.Name == name {
			return s.ID
		}
	}
	t.Fatalf("symbol %q not found", name)
	return 0
}

// TestFig1StrongImplicitDependence reproduces step (3) of the paper's
// worked example: VerifyDep(S4, S6) returns STRONG_ID — switching the
// first if produces the expected flags value at the failure point.
func TestFig1StrongImplicitDependence(t *testing.T) {
	v, c := fig1Verifier(t)
	ifFlags := testsupport.StmtID(t, c, "if (saveOrigName)")
	writeFlags := testsupport.StmtID(t, c, "outbuf[outcnt] = flags")

	p := v.Orig.FindInstance(trace.Instance{Stmt: ifFlags, Occ: 1})
	u := v.Orig.FindInstance(trace.Instance{Stmt: writeFlags, Occ: 1})
	verdict := v.Verify(Request{Pred: p, Use: u, UseSym: symID(t, c, "flags"), UseElem: trace.ScalarElem})
	if verdict != StrongID {
		t.Errorf("VerifyDep(S4, S6) = %v, want STRONG_ID", verdict)
	}
}

// TestNilBackendRunsDefault: a Verifier without a Backend runs the
// default backend, the VM, so the VM checkpoint store it carries is
// forked from instead of ignored.
func TestNilBackendRunsDefault(t *testing.T) {
	c := testsupport.Compile(t, testsupport.Fig1Faulty)
	st := vm.Backend.NewCheckpoints(interp.DefaultCheckpoints)
	r := vm.Backend.Run(c, interp.Options{Input: testsupport.Fig1Input, BuildTrace: true, Checkpoints: st})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	v := &Verifier{C: c, Input: testsupport.Fig1Input, Orig: r.Trace, Checkpoints: st}
	use := r.Trace.Outputs[len(r.Trace.Outputs)-1].Entry
	for i := 0; i < r.Trace.Len(); i++ {
		if r.Trace.At(i).Branch == cfg.None {
			continue
		}
		if res := v.VerifyDetailed(Request{Pred: i, Use: use}); res.Switched.ResumedAt > 0 {
			return
		}
	}
	t.Fatal("no switched run forked from the VM checkpoint store")
}

// TestFig1FalsePotentialRejected reproduces step (2): VerifyDep(S7, S10)
// returns NOT_ID — the potential dependence introduced by whole-array
// reasoning does not survive verification.
func TestFig1FalsePotentialRejected(t *testing.T) {
	v, c := fig1Verifier(t)
	// The second "if (saveOrigName)" is the paper's S7.
	first := testsupport.StmtID(t, c, "if (saveOrigName)")
	second := 0
	for _, s := range c.Info.Stmts {
		if s.ID() > first && ast.StmtString(s) == "if (saveOrigName)" {
			second = s.ID()
			break
		}
	}
	if second == 0 {
		t.Fatal("second if not found")
	}

	p := v.Orig.FindInstance(trace.Instance{Stmt: second, Occ: 1})
	u := v.WrongOut.Entry // the wrong print
	verdict := v.Verify(Request{Pred: p, Use: u, UseSym: symID(t, c, "outbuf"), UseElem: 1})
	if verdict != NotID {
		t.Errorf("VerifyDep(S7, S10) = %v, want NOT_ID", verdict)
	}
}

// TestTable5aFeasibility: switching may force a statically infeasible
// path and still expose a dependence; the technique accepts this (the
// predicate itself may be the bug).
func TestTable5aFeasibility(t *testing.T) {
	src := `
func main() {
    var A = read();
    var X = 1;
    if (A > 10) {
        A = A + 1;
    }
    if (A < 5) {
        X = 2;
    }
    print(X);
}`
	c := testsupport.Compile(t, src)
	r := testsupport.Run(t, c, []int64{15})
	p2 := testsupport.StmtID(t, c, "if (A < 5)")
	pr := testsupport.StmtID(t, c, "print(X)")

	v := &Verifier{C: c, Input: []int64{15}, Orig: r.Trace}
	p := r.Trace.FindInstance(trace.Instance{Stmt: p2, Occ: 1})
	u := r.Trace.FindInstance(trace.Instance{Stmt: pr, Occ: 1})
	verdict := v.Verify(Request{Pred: p, Use: u, UseSym: symID(t, c, "X"), UseElem: trace.ScalarElem})
	if verdict != ID {
		t.Errorf("infeasible-path dependence: VerifyDep = %v, want ID", verdict)
	}
}

// TestTable5bUnsoundness: nested predicates guarded by the same faulty
// value hide the implicit dependence — switching one predicate at a time
// does not expose it (the paper's documented soundness gap).
func TestTable5bUnsoundness(t *testing.T) {
	src := `
func main() {
    var A = read();
    var X = 1;
    if (A > 10) {
        if (A > 100) {
            X = 2;
        }
    }
    print(X);
}`
	c := testsupport.Compile(t, src)
	r := testsupport.Run(t, c, []int64{5})
	p1 := testsupport.StmtID(t, c, "if (A > 10)")
	pr := testsupport.StmtID(t, c, "print(X)")

	v := &Verifier{C: c, Input: []int64{5}, Orig: r.Trace}
	p := r.Trace.FindInstance(trace.Instance{Stmt: p1, Occ: 1})
	u := r.Trace.FindInstance(trace.Instance{Stmt: pr, Occ: 1})
	verdict := v.Verify(Request{Pred: p, Use: u, UseSym: symID(t, c, "X"), UseElem: trace.ScalarElem})
	if verdict != NotID {
		t.Errorf("nested-predicate case: VerifyDep = %v, want NOT_ID (documented unsoundness)", verdict)
	}
}

// edgesVsPathsSrc: the paper's §3.1 example where the loop body defines x.
// With the edge approximation, VerifyDep(if(P), print(x)) is NOT_ID; with
// path mode (the letter of Definition 2) it is ID.
const edgesVsPathsSrc = `
func main() {
    var i = 0;
    var t = 0;
    var x = 0;
    var P = read();
    if (P) {
        t = 1;
    }
    while (i < t) {
        x = 9;
        i = i + 1;
    }
    print(x);
}`

func TestEdgesVsPaths(t *testing.T) {
	c := testsupport.Compile(t, edgesVsPathsSrc)
	r := testsupport.Run(t, c, []int64{0})
	ifP := testsupport.StmtID(t, c, "if (P)")
	pr := testsupport.StmtID(t, c, "print(x)")
	p := r.Trace.FindInstance(trace.Instance{Stmt: ifP, Occ: 1})
	u := r.Trace.FindInstance(trace.Instance{Stmt: pr, Occ: 1})
	req := Request{Pred: p, Use: u, UseSym: symID(t, c, "x"), UseElem: trace.ScalarElem}

	edge := &Verifier{C: c, Input: []int64{0}, Orig: r.Trace}
	if got := edge.Verify(req); got != NotID {
		t.Errorf("edge mode: VerifyDep = %v, want NOT_ID (x's def is outside Region(p'))", got)
	}
	path := &Verifier{C: c, Input: []int64{0}, Orig: r.Trace, PathMode: true}
	if got := path.Verify(req); got != ID {
		t.Errorf("path mode: VerifyDep = %v, want ID (explicit path p'->t->while->x->print)", got)
	}

	// The edge-mode route to the root cause still exists stepwise:
	// if(P) -> while-cond (use of t), then while-cond -> print (use of x).
	wcond := testsupport.StmtID(t, c, "while (i < t)")
	w := r.Trace.FindInstance(trace.Instance{Stmt: wcond, Occ: 1})
	if got := edge.Verify(Request{Pred: p, Use: w, UseSym: symID(t, c, "t"), UseElem: trace.ScalarElem}); got != ID {
		t.Errorf("edge mode: VerifyDep(if, while-cond) = %v, want ID", got)
	}
	if got := edge.Verify(Request{Pred: w, Use: u, UseSym: symID(t, c, "x"), UseElem: trace.ScalarElem}); got != ID {
		t.Errorf("edge mode: VerifyDep(while-cond, print) = %v, want ID", got)
	}
}

// TestBudgetTimeout: if the switched execution blows the step budget, the
// verification fails (NOT_ID), mirroring the paper's timer.
func TestBudgetTimeout(t *testing.T) {
	src := `
func main() {
    var P = read();
    var x = 1;
    var bound = 3;
    if (P) {
        bound = 100000;
    }
    var i = 0;
    while (i < bound) {
        i = i + 1;
    }
    print(x);
}`
	c := testsupport.Compile(t, src)
	r := testsupport.Run(t, c, []int64{0})
	ifP := testsupport.StmtID(t, c, "if (P)")
	pr := testsupport.StmtID(t, c, "print(x)")
	p := r.Trace.FindInstance(trace.Instance{Stmt: ifP, Occ: 1})
	u := r.Trace.FindInstance(trace.Instance{Stmt: pr, Occ: 1})

	v := &Verifier{C: c, Input: []int64{0}, Orig: r.Trace}
	got := v.Verify(Request{Pred: p, Use: u, UseSym: symID(t, c, "x"), UseElem: trace.ScalarElem})
	if got != NotID {
		t.Errorf("timed-out verification = %v, want NOT_ID", got)
	}
}

// TestCrashTreatedAsMissing: a switched run that crashes before reaching
// u' counts as "u' not found" — an implicit dependence.
func TestCrashTreatedAsMissing(t *testing.T) {
	src := `
var a[4];
func main() {
    var P = read();
    var x = 1;
    var idx = 0;
    if (P) {
        idx = 100;
    }
    a[idx] = 5;
    print(x);
}`
	c := testsupport.Compile(t, src)
	r := testsupport.Run(t, c, []int64{0})
	ifP := testsupport.StmtID(t, c, "if (P)")
	pr := testsupport.StmtID(t, c, "print(x)")
	p := r.Trace.FindInstance(trace.Instance{Stmt: ifP, Occ: 1})
	u := r.Trace.FindInstance(trace.Instance{Stmt: pr, Occ: 1})

	v := &Verifier{C: c, Input: []int64{0}, Orig: r.Trace}
	got := v.Verify(Request{Pred: p, Use: u, UseSym: symID(t, c, "x"), UseElem: trace.ScalarElem})
	if got != ID {
		t.Errorf("crashing switched run: VerifyDep = %v, want ID (u' missing)", got)
	}
}

// TestMemoization: repeated verification of the same dependence re-uses
// the cached verdict instead of re-executing.
func TestMemoization(t *testing.T) {
	v, c := fig1Verifier(t)
	ifFlags := testsupport.StmtID(t, c, "if (saveOrigName)")
	writeFlags := testsupport.StmtID(t, c, "outbuf[outcnt] = flags")
	p := v.Orig.FindInstance(trace.Instance{Stmt: ifFlags, Occ: 1})
	u := v.Orig.FindInstance(trace.Instance{Stmt: writeFlags, Occ: 1})
	req := Request{Pred: p, Use: u, UseSym: symID(t, c, "flags"), UseElem: trace.ScalarElem}

	v.Verify(req)
	n := v.Verifications
	v.Verify(req)
	if v.Verifications != n {
		t.Errorf("memoized verification re-executed (count %d -> %d)", n, v.Verifications)
	}
}
