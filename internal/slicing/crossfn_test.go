package slicing

import (
	"testing"

	"eol/internal/depgraph"
	"eol/internal/testsupport"
	"eol/internal/trace"
)

// crossFnSrc: the omission happens inside a callee — the predicate that
// suppresses the global write lives in setup(), the corrupted use in
// main(). Intraprocedural PD cannot connect them; the cross-function
// extension can.
const crossFnSrc = `
var mode;

func setup(request) {
    if (request > 0) {
        mode = 7;
    }
    return 0;
}

func main() {
    var request = read() * 0;   // ROOT CAUSE: should be read()
    mode = 1;
    setup(request);
    print(mode);
}`

func crossFnRun(t *testing.T) (*Context, *depgraph.Graph, int, int, int) {
	t.Helper()
	c := testsupport.Compile(t, crossFnSrc)
	r := testsupport.Run(t, c, []int64{5})
	cx := NewContext(c, r.Trace)
	g := depgraph.New(r.Trace)
	pr := testsupport.StmtID(t, c, "print(mode)")
	u := r.Trace.FindInstance(trace.Instance{Stmt: pr, Occ: 1})
	ifID := testsupport.StmtID(t, c, "if (request > 0)")
	root := testsupport.StmtID(t, c, "read() * 0")
	return cx, g, u, ifID, root
}

// TestCrossFunctionPDDefault documents the intraprocedural limitation:
// without the extension, PD(print(mode)) misses the callee predicate and
// the relevant slice misses the root cause.
func TestCrossFunctionPDDefault(t *testing.T) {
	cx, g, u, ifID, root := crossFnRun(t)
	if hasPred(cx.T, cx.PotentialDeps(u), ifID) {
		t.Fatal("intraprocedural PD unexpectedly crossed the function boundary")
	}
	rs := cx.Relevant(g, u)
	if g.ContainsStmt(rs, root) {
		t.Fatal("RS unexpectedly contains the root cause without cross-function PD")
	}
}

// TestCrossFunctionPDExtension: with CrossFunction enabled, the callee
// predicate joins PD(u) for the global use and the relevant slice reaches
// the root cause.
func TestCrossFunctionPDExtension(t *testing.T) {
	cx, g, u, ifID, root := crossFnRun(t)
	cx.CrossFunction = true
	if !hasPred(cx.T, cx.PotentialDeps(u), ifID) {
		t.Fatalf("cross-function PD missing the callee predicate; got %v", cx.PotentialDeps(u))
	}
	rs := cx.Relevant(g, u)
	if !g.ContainsStmt(rs, root) {
		t.Fatal("RS must contain the root cause with cross-function PD")
	}
}

// TestCrossFunctionPDNoFalseLocals: the extension must not add
// cross-function candidates for local variables.
func TestCrossFunctionPDNoFalseLocals(t *testing.T) {
	src := `
func helper(v) {
    var local = 0;
    if (v > 0) {
        local = 1;
    }
    return local;
}
func main() {
    var x = 5;
    helper(0);
    print(x);
}`
	c := testsupport.Compile(t, src)
	r := testsupport.Run(t, c, nil)
	cx := NewContext(c, r.Trace)
	cx.CrossFunction = true
	pr := testsupport.StmtID(t, c, "print(x)")
	u := r.Trace.FindInstance(trace.Instance{Stmt: pr, Occ: 1})
	ifID := testsupport.StmtID(t, c, "if (v > 0)")
	if hasPred(r.Trace, cx.PotentialDeps(u), ifID) {
		t.Error("local x cannot potentially depend on a callee predicate over a callee local")
	}
}
