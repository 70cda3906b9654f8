package depgraph

import (
	"sort"
	"testing"

	"eol/internal/trace"
)

// chainTrace builds a synthetic trace: e0 <- e1 <- e2 (data), with e2
// control dependent on e1.
func chainTrace() *trace.Trace {
	t := trace.New()
	t.Append(trace.Entry{Inst: trace.Instance{Stmt: 1, Occ: 1}, Parent: -1})
	e1 := t.Append(trace.Entry{Inst: trace.Instance{Stmt: 2, Occ: 1}, Parent: -1})
	t.AddUse(e1, trace.UseRec{Sym: 0, Elem: trace.ScalarElem, Def: 0})
	e2 := t.Append(trace.Entry{Inst: trace.Instance{Stmt: 3, Occ: 1}, Parent: 1})
	t.AddUse(e2, trace.UseRec{Sym: 1, Elem: trace.ScalarElem, Def: 1})
	return t
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestKinds(t *testing.T) {
	names := map[Kind]string{
		Data: "dd", Control: "cd", Potential: "pd",
		Implicit: "id", StrongImplicit: "sid",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d renders %q, want %q", k, k.String(), want)
		}
	}
	if Explicit != Data|Control {
		t.Error("Explicit must be Data|Control")
	}
}

func TestEachDep(t *testing.T) {
	g := New(chainTrace())
	var got []Edge
	g.EachDep(2, Explicit, func(e Edge) { got = append(got, e) })
	// e2 has one data dep (on 1) and one control dep (on 1), data first.
	if len(got) != 2 {
		t.Fatalf("deps = %v", got)
	}
	if got[0].Kind != Data || got[1].Kind != Control {
		t.Errorf("dep order = %v, want data then control", got)
	}
	for _, e := range got {
		if e.To != 1 {
			t.Errorf("dep target %d, want 1", e.To)
		}
	}
	// Restricting kinds filters.
	got = got[:0]
	g.EachDep(2, Control, func(e Edge) { got = append(got, e) })
	if len(got) != 1 || got[0].Kind != Control {
		t.Errorf("control-only deps = %v", got)
	}
}

func TestBackwardSliceAndExtraEdges(t *testing.T) {
	g := New(chainTrace())
	s := g.BackwardSlice(Explicit, 2)
	if !equalInts(s.Ordered(), []int{0, 1, 2}) {
		t.Errorf("slice = %v", s.Ordered())
	}
	// Restrict to data only from entry 1: {1, 0}.
	s = g.BackwardSlice(Data, 1)
	if !equalInts(s.Ordered(), []int{0, 1}) {
		t.Errorf("data slice = %v", s.Ordered())
	}

	// An implicit edge extends the closure.
	g2 := New(chainTrace())
	g2.AddEdge(0, 2, Implicit) // nonsensical direction is fine for the test
	s = g2.BackwardSlice(Explicit|Implicit, 0)
	if !s.Has(2) {
		t.Errorf("implicit edge not followed: %v", s.Ordered())
	}
	// Duplicate adds are ignored.
	if g2.AddEdge(0, 2, Implicit) {
		t.Error("duplicate AddEdge reported as new")
	}
	if n := g2.NumExtraEdges(Implicit); n != 1 {
		t.Errorf("extra edges = %d, want 1", n)
	}
	if n := g2.NumExtraEdges(StrongImplicit); n != 0 {
		t.Errorf("strong edges = %d, want 0", n)
	}
	if es := g2.ExtraEdges(0); len(es) != 1 || es[0].To != 2 {
		t.Errorf("ExtraEdges = %v", es)
	}
}

func TestVersionCounter(t *testing.T) {
	g := New(chainTrace())
	if g.Version() != 0 {
		t.Errorf("fresh graph version = %d", g.Version())
	}
	g.AddEdge(2, 0, Implicit)
	if g.Version() != 1 {
		t.Errorf("version after add = %d", g.Version())
	}
	g.AddEdge(2, 0, Implicit) // duplicate: no bump
	if g.Version() != 1 {
		t.Errorf("version after duplicate add = %d", g.Version())
	}
}

func TestDistances(t *testing.T) {
	g := New(chainTrace())
	d := g.Distances(Explicit, 2)
	if d[2] != 0 || d[1] != 1 || d[0] != 2 {
		t.Errorf("distances = %v", d)
	}
	if d := g.Distances(Explicit, -1); d != nil {
		t.Errorf("invalid seed distances = %v", d)
	}
}

func TestStatsAndHelpers(t *testing.T) {
	tr := trace.New()
	// two instances of stmt 1, one of stmt 2
	tr.Append(trace.Entry{Inst: trace.Instance{Stmt: 1, Occ: 1}, Parent: -1})
	tr.Append(trace.Entry{Inst: trace.Instance{Stmt: 1, Occ: 2}, Parent: -1})
	tr.Append(trace.Entry{Inst: trace.Instance{Stmt: 2, Occ: 1}, Parent: -1})
	g := New(tr)
	slice := NewSet(3)
	slice.Add(0)
	slice.Add(1)
	slice.Add(2)
	st := g.Stats(slice)
	if st.Static != 2 || st.Dynamic != 3 {
		t.Errorf("stats = %+v", st)
	}
	if !g.ContainsStmt(slice, 1) || !g.ContainsStmt(slice, 2) || g.ContainsStmt(slice, 3) {
		t.Error("ContainsStmt broken")
	}
	unordered := NewSet(3)
	unordered.Add(2)
	unordered.Add(0)
	unordered.Add(1)
	ord := unordered.Ordered()
	if !sort.IntsAreSorted(ord) || len(ord) != 3 {
		t.Errorf("SortedEntries = %v", ord)
	}
}

func TestSliceWithNegativeSeed(t *testing.T) {
	g := New(chainTrace())
	if s := g.BackwardSlice(Explicit, -1); s.Len() != 0 {
		t.Errorf("negative seed slice = %v", s.Ordered())
	}
}
