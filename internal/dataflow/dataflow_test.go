package dataflow

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"eol/internal/cfg"
	"eol/internal/lang/ast"
	"eol/internal/lang/parser"
	"eol/internal/lang/sem"
)

func build(t *testing.T, src string) (*sem.Info, *Analysis) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	graphs, err := cfg.Build(info)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return info, New(info, graphs)
}

func stmtID(t *testing.T, info *sem.Info, frag string) int {
	t.Helper()
	for _, s := range info.Stmts {
		if strings.Contains(ast.StmtString(s), frag) {
			return s.ID()
		}
	}
	t.Fatalf("no statement containing %q", frag)
	return 0
}

func symID(t *testing.T, info *sem.Info, name string) int {
	t.Helper()
	for _, s := range info.Symbols {
		if s.Name == name {
			return s.ID
		}
	}
	t.Fatalf("symbol %q missing", name)
	return 0
}

const branchSrc = `
func main() {
    var p = read();
    var x = 0;
    if (p) {
        x = 1;
    } else {
        x = 2;
    }
    print(x);
}`

func TestReachingDefinitions(t *testing.T) {
	info, a := build(t, branchSrc)
	x := symID(t, info, "x")
	pr := stmtID(t, info, "print(x)")
	x0 := stmtID(t, info, "var x = 0")
	x1 := stmtID(t, info, "x = 1")
	x2 := stmtID(t, info, "x = 2")

	got := a.DefsReaching(pr, x)
	sort.Ints(got)
	want := []int{x1, x2}
	sort.Ints(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DefsReaching(print, x) = %v, want %v (the init is killed on both paths)", got, want)
	}
	// At the branch arms, only the init reaches.
	got = a.DefsReaching(x1, x)
	if !reflect.DeepEqual(got, []int{x0}) {
		t.Errorf("DefsReaching(x=1, x) = %v, want [%d]", got, x0)
	}
}

func TestWeakArrayUpdates(t *testing.T) {
	src := `
var a[4];
func main() {
    a[0] = 1;
    a[1] = 2;
    print(a[0]);
}`
	info, a := build(t, src)
	arr := symID(t, info, "a")
	pr := stmtID(t, info, "print(a[0])")
	got := a.DefsReaching(pr, arr)
	// Both element writes reach (weak updates do not kill each other).
	// The global declaration is represented by the virtual entry
	// definition, which DefsReaching excludes.
	a0 := stmtID(t, info, "a[0] = 1")
	a1 := stmtID(t, info, "a[1] = 2")
	sort.Ints(got)
	if !reflect.DeepEqual(got, []int{a0, a1}) {
		t.Errorf("DefsReaching(print, a) = %v, want both element writes %v", got, []int{a0, a1})
	}
}

func TestControlledByClosure(t *testing.T) {
	src := `
func main() {
    var p = read();
    var q = read();
    var x = 0;
    if (p) {
        if (q) {
            x = 1;
        }
        x = x + 10;
    }
    print(x);
}`
	info, a := build(t, src)
	ifP := stmtID(t, info, "if (p)")
	ifQ := stmtID(t, info, "if (q)")
	x1 := stmtID(t, info, "x = 1")
	x10 := stmtID(t, info, "x = x + 10")
	pr := stmtID(t, info, "print(x)")

	inP := a.ControlledBy(ifP, cfg.True)
	if !inP.Has(ifQ) || !inP.Has(x1) || !inP.Has(x10) {
		t.Errorf("ControlledBy(ifP, T) = %v, want {ifQ, x=1, x+10}", inP.IDs())
	}
	if inP.Has(pr) || inP.Has(ifP) {
		t.Errorf("ControlledBy must exclude the join point and the predicate itself: %v", inP.IDs())
	}
	if want := []int{ifQ, x1, x10}; !reflect.DeepEqual(inP.IDs(), want) || inP.Len() != len(want) {
		t.Errorf("ControlledBy(ifP, T).IDs() = %v (Len %d), want %v", inP.IDs(), inP.Len(), want)
	}
	inQ := a.ControlledBy(ifQ, cfg.True)
	if !inQ.Has(x1) || inQ.Has(x10) || inQ.Len() != 1 {
		t.Errorf("ControlledBy(ifQ, T) = %v, want exactly {x=1}", inQ.IDs())
	}
	if got := a.ControlledBy(ifP, cfg.False); got.Len() != 0 {
		t.Errorf("no else branch: ControlledBy(ifP, F) = %v", got.IDs())
	}
	if got := a.ControlledBy(pr, cfg.True); got.Len() != 0 || got.Has(x1) {
		t.Errorf("a statement that is no predicate controls %v", got.IDs())
	}
}

// TestStmtSetSpan checks membership at the edges of a set's span, which
// starts at the word of its smallest member.
func TestStmtSetSpan(t *testing.T) {
	b := newBitset(300)
	for _, id := range []int{130, 191, 192, 257} {
		b.set(id)
	}
	s := newStmtSet(b)
	if want := []int{130, 191, 192, 257}; !reflect.DeepEqual(s.IDs(), want) {
		t.Errorf("IDs() = %v, want %v", s.IDs(), want)
	}
	for id, want := range map[int]bool{0: false, 63: false, 128: false, 129: false, 130: true,
		192: true, 193: false, 256: false, 257: true, 258: false, 320: false, 1000: false} {
		if s.Has(id) != want {
			t.Errorf("Has(%d) = %v, want %v", id, !want, want)
		}
	}
	if s.HasAny([]int{1, 129, 256}) || !s.HasAny([]int{1, 192}) {
		t.Error("HasAny disagrees with Has")
	}
	if e := newStmtSet(newBitset(300)); e.Len() != 0 || e.Has(0) || len(e.IDs()) != 0 {
		t.Errorf("empty set: Len %d, IDs %v", e.Len(), e.IDs())
	}
}

func TestMayDefineGlobals(t *testing.T) {
	src := `
var g1;
var g2;
var buf[4];
func leaf() {
    g1 = 1;
    return 0;
}
func mid(x) {
    leaf();
    buf[x] = 2;
    return x;
}
func pure(x) {
    return x * 2;
}
func main() {
    mid(1);
    pure(2);
    g2 = 3;
}`
	info, a := build(t, src)
	g1 := symID(t, info, "g1")
	g2 := symID(t, info, "g2")
	buf := symID(t, info, "buf")

	leaf := a.MayDefineGlobals("leaf")
	if !leaf[g1] || leaf[g2] || leaf[buf] {
		t.Errorf("leaf may-def = %v", leaf)
	}
	mid := a.MayDefineGlobals("mid")
	if !mid[g1] || !mid[buf] || mid[g2] {
		t.Errorf("mid may-def = %v (transitive through leaf)", mid)
	}
	if len(a.MayDefineGlobals("pure")) != 0 {
		t.Errorf("pure may-def = %v", a.MayDefineGlobals("pure"))
	}
	main := a.MayDefineGlobals("main")
	if !main[g1] || !main[g2] || !main[buf] {
		t.Errorf("main may-def = %v", main)
	}
}

func TestPotentialBranchFig1(t *testing.T) {
	src := `
var flags;
var outbuf[8];
func main() {
    var s = read();
    flags = 0;
    if (s) {
        flags = flags | 8;
    }
    outbuf[0] = flags;
    if (s) {
        outbuf[1] = 99;
    }
    print(outbuf[0]);
}`
	info, a := build(t, src)
	flags := symID(t, info, "flags")
	outbuf := symID(t, info, "outbuf")
	store := stmtID(t, info, "outbuf[0] = flags")
	pr := stmtID(t, info, "print")

	var ifs []int
	for _, s := range info.Stmts {
		if ast.StmtString(s) == "if (s)" {
			ifs = append(ifs, s.ID())
		}
	}
	if len(ifs) != 2 {
		t.Fatalf("ifs = %v", ifs)
	}

	// The first if's TRUE side defines flags: a False-taking instance has
	// a potential dependence for the flags use at the store.
	if !a.PotentialBranch(ifs[0], cfg.False, store, flags) {
		t.Error("flags store should potentially depend on the first if taking F")
	}
	// Not for the outbuf use at the print: the first if defines no outbuf.
	if a.PotentialBranch(ifs[0], cfg.False, pr, outbuf) {
		t.Error("print(outbuf) must not potentially depend on the first if")
	}
	// The second if's TRUE side writes outbuf: the print's outbuf use
	// qualifies (whole-array granularity, the paper's false dependence).
	if !a.PotentialBranch(ifs[1], cfg.False, pr, outbuf) {
		t.Error("print(outbuf) should potentially depend on the second if (array coarseness)")
	}
	// Taking the branch the defs live on yields no potential dependence.
	if a.PotentialBranch(ifs[0], cfg.True, store, flags) {
		t.Error("a True-taking instance's opposite side has no flags defs")
	}
}

func TestPotentialBranchCrossFunction(t *testing.T) {
	src := `
var g;
func setg() { g = 1; return 0; }
func main() {
	var p = read();
	g = 0;
	if (p) {
		setg();
	}
	print(g);
}`
	info, a := build(t, src)
	g := symID(t, info, "g")
	ifP := stmtID(t, info, "if (p)")
	pr := stmtID(t, info, "print(g)")
	// The call inside the branch may define g (summary): condition (iv)
	// holds via the call site.
	if !a.PotentialBranch(ifP, cfg.False, pr, g) {
		t.Error("call-site may-defs should feed potential dependences")
	}
}
