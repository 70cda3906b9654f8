package staticdep

import (
	"strings"
	"testing"

	"eol/internal/depgraph"
	"eol/internal/interp"
	"eol/internal/lang/ast"
)

func compile(t *testing.T, src string) *interp.Compiled {
	t.Helper()
	c, err := interp.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// stmtByFrag resolves the unique statement whose source rendering
// contains frag.
func stmtByFrag(t *testing.T, c *interp.Compiled, frag string) int {
	t.Helper()
	id := 0
	for _, s := range c.Info.Stmts {
		if strings.Contains(ast.StmtString(s), frag) {
			if id != 0 {
				t.Fatalf("fragment %q is ambiguous", frag)
			}
			id = s.ID()
		}
	}
	if id == 0 {
		t.Fatalf("fragment %q not found", frag)
	}
	return id
}

const crossSrc = `
var g;
var sum;

func bump() {
    if (sum > 10) {
        g = 1;
    }
}

func report() {
    sum = sum + g;
    print(sum);
}

func main() {
    sum = read();
    bump();
    g = 2;
    report();
}
`

func TestSPDGBasics(t *testing.T) {
	c := compile(t, crossSrc)
	g := New(c, nil)
	st := g.Stats()
	if st.Nodes != c.Info.NumStmts() {
		t.Errorf("Nodes = %d, want %d", st.Nodes, c.Info.NumStmts())
	}
	if st.ControlEdges == 0 || st.DataEdges == 0 || st.SummaryEdges == 0 {
		t.Errorf("expected all edge kinds, got %+v", st)
	}
	if st.Predicates != 1 {
		t.Errorf("Predicates = %d, want 1", st.Predicates)
	}
	// Succs are ascending and rows cover all IDs.
	for id := 1; id <= g.NumStmts(); id++ {
		es := g.Succs(id)
		for i := 1; i < len(es); i++ {
			if es[i-1].To >= es[i].To {
				t.Fatalf("Succs(%d) not strictly ascending: %v", id, es)
			}
		}
	}
}

// TestGlobalReachingKill: main's unconditional g = 2 kills bump's
// guarded g = 1 before report reads g, so the interprocedural reach
// excludes it — the sharpening over the flow-insensitive mod/ref view.
func TestGlobalReachingKill(t *testing.T) {
	c := compile(t, crossSrc)
	g := New(c, nil)
	def := stmtByFrag(t, c, "g = 1")
	kill := stmtByFrag(t, c, "g = 2")
	use := stmtByFrag(t, c, "sum = sum + g")
	gsym := -1
	for _, sym := range c.Info.StmtUses[use] {
		if sym.Name == "g" {
			gsym = sym.ID
		}
	}
	if gsym < 0 {
		t.Fatal("no use of g at use statement")
	}
	reach := g.GlobalDefsReaching(use, gsym)
	for _, d := range reach {
		if d == def {
			t.Errorf("killed definition %d still reaches use %d: %v", def, use, reach)
		}
	}
	found := false
	for _, d := range reach {
		if d == kill {
			found = true
		}
	}
	if !found {
		t.Errorf("killing definition %d missing from reach set %v", kill, reach)
	}
}

// TestConeKill: with the guarded g = 1 killed before any read, the
// predicate's cone must not contain the downstream use of g, and the
// cone stays harmless (no faults or reads inside).
func TestConeKill(t *testing.T) {
	c := compile(t, crossSrc)
	g := New(c, nil)
	pred := stmtByFrag(t, c, "sum > 10")
	def := stmtByFrag(t, c, "g = 1")
	use := stmtByFrag(t, c, "sum = sum + g")
	if !g.InCone(pred, def) {
		t.Errorf("guarded definition %d not in cone of %d", def, pred)
	}
	if g.InCone(pred, use) {
		t.Errorf("killed flow: use %d must be outside cone of %d", use, pred)
	}
	if !g.ConeHarmless(pred) {
		t.Errorf("cone of %d should be harmless", pred)
	}
}

// TestConeCallOrder: a definition inside a function only called after
// the use executes cannot reach it (no loop re-enters the caller), so
// the use stays outside the predicate's cone.
func TestConeCallOrder(t *testing.T) {
	src := `
var flag;

func late() {
    if (flag > 0) {
        flag = flag + 1;
    }
}

func main() {
    flag = read();
    var v = flag * 2;
    print(v);
    late();
}
`
	c := compile(t, src)
	g := New(c, nil)
	pred := stmtByFrag(t, c, "flag > 0")
	use := stmtByFrag(t, c, "var v = flag * 2")
	if g.InCone(pred, use) {
		t.Errorf("use %d executes before late() is ever called; cone of %d must exclude it", use, pred)
	}
	if !g.ConeHarmless(pred) {
		t.Errorf("cone of %d should be harmless", pred)
	}
}

// TestConeLoopFeedback: the same shape inside a loop re-enters the
// caller, so the definition does reach the earlier use statement.
func TestConeLoopFeedback(t *testing.T) {
	src := `
var flag;

func late() {
    if (flag > 0) {
        flag = flag + 1;
    }
}

func main() {
    flag = read();
    var i = 0;
    while (i < 3) {
        var v = flag * 2;
        print(v);
        late();
        i = i + 1;
    }
}
`
	c := compile(t, src)
	g := New(c, nil)
	pred := stmtByFrag(t, c, "flag > 0")
	use := stmtByFrag(t, c, "var v = flag * 2")
	if !g.InCone(pred, use) {
		t.Errorf("loop feeds late()'s write back to use %d; cone of %d must include it", use, pred)
	}
}

func TestMayRef(t *testing.T) {
	c := compile(t, crossSrc)
	g := New(c, nil)
	var gID, sumID int
	for _, sym := range c.Info.Symbols {
		switch sym.Name {
		case "g":
			gID = sym.ID
		case "sum":
			sumID = sym.ID
		}
	}
	if !g.MayRef("report")[gID] || !g.MayRef("report")[sumID] {
		t.Errorf("report must ref g and sum: %v", g.MayRef("report"))
	}
	if !g.MayRef("main")[gID] {
		t.Errorf("main must ref g transitively through report: %v", g.MayRef("main"))
	}
	if g.MayRef("bump")[gID] {
		t.Errorf("bump only writes g, must not ref it: %v", g.MayRef("bump"))
	}
}

func TestDeadGlobalStores(t *testing.T) {
	src := `
var used;
var dead;

func main() {
    used = read();
    dead = used + 1;
    print(used);
}
`
	c := compile(t, src)
	g := New(c, nil)
	deadStmt := stmtByFrag(t, c, "dead = used + 1")
	got := g.DeadGlobalStores()
	if len(got) != 1 || got[0] != deadStmt {
		t.Errorf("DeadGlobalStores = %v, want [%d]", got, deadStmt)
	}
}

func TestConeSilent(t *testing.T) {
	src := `
var bookkeeping;

func main() {
    var x = read();
    if (x > 0) {
        bookkeeping = 1;
    }
    if (x > 1) {
        print(x);
    }
}
`
	c := compile(t, src)
	g := New(c, nil)
	silent := stmtByFrag(t, c, "x > 0")
	loud := stmtByFrag(t, c, "x > 1")
	if !g.ConeSilent(silent) {
		t.Errorf("cone of %d writes only an unread global: want silent", silent)
	}
	if g.ConeSilent(loud) {
		t.Errorf("cone of %d prints: want not silent", loud)
	}
}

// TestSummaryEdges: a call site links to the callee body, and the
// callee's return statement links back to every call site.
func TestSummaryEdges(t *testing.T) {
	src := `
func twice(v) {
    return v * 2;
}

func main() {
    var a = read();
    var b = twice(a);
    print(b);
}
`
	c := compile(t, src)
	g := New(c, nil)
	call := stmtByFrag(t, c, "var b = twice(a)")
	ret := stmtByFrag(t, c, "return v * 2")
	hasKind := func(from, to int, k depgraph.Kind) bool {
		for _, e := range g.Succs(from) {
			if e.To == to && e.Kind&k != 0 {
				return true
			}
		}
		return false
	}
	if !hasKind(call, ret, depgraph.Summary) {
		t.Errorf("missing call→body summary edge %d→%d", call, ret)
	}
	if !hasKind(ret, call, depgraph.Summary) {
		t.Errorf("missing return→call summary edge %d→%d", ret, call)
	}
}
