package trace

import (
	"testing"
	"testing/quick"
)

// buildTree constructs a small region forest:
//
//	0 (root)
//	├── 1
//	│   └── 2
//	└── 3
//	4 (root)
func buildTree() *Trace {
	t := New()
	t.Append(Entry{Inst: Instance{Stmt: 1, Occ: 1}, Parent: -1})
	t.Append(Entry{Inst: Instance{Stmt: 2, Occ: 1}, Parent: 0})
	t.Append(Entry{Inst: Instance{Stmt: 3, Occ: 1}, Parent: 1})
	t.Append(Entry{Inst: Instance{Stmt: 2, Occ: 2}, Parent: 0})
	t.Append(Entry{Inst: Instance{Stmt: 4, Occ: 1}, Parent: -1})
	t.Finish()
	return t
}

// isAncestorWalk is the reference ancestor test the Ancestry index must
// agree with: walk y's parent chain looking for x (reflexive).
func isAncestorWalk(t *Trace, x, y int) bool {
	for n := y; n >= 0; n = t.At(n).Parent {
		if n == x {
			return true
		}
	}
	return false
}

func TestTreeStructure(t *testing.T) {
	tr := buildTree()
	if tr.Len() != 5 {
		t.Fatalf("len = %d", tr.Len())
	}
	if got := tr.Roots(); len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Errorf("roots = %v", got)
	}
	if got := tr.Children(0); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("children(0) = %v", got)
	}
	if got := tr.Children(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("children(1) = %v", got)
	}
	if got := tr.Children(4); len(got) != 0 {
		t.Errorf("children(4) = %v", got)
	}
}

func TestAncestorsAndDepth(t *testing.T) {
	tr := buildTree()
	cases := []struct {
		a, b int
		want bool
	}{
		{0, 0, true}, {0, 1, true}, {0, 2, true}, {0, 3, true},
		{1, 2, true}, {1, 3, false}, {0, 4, false}, {4, 0, false},
		{2, 1, false}, {3, 0, false},
	}
	anc := tr.Ancestry()
	for _, c := range cases {
		if got := isAncestorWalk(tr, c.a, c.b); got != c.want {
			t.Errorf("isAncestorWalk(%d,%d) = %v", c.a, c.b, got)
		}
		if got := anc.IsAncestor(c.a, c.b); got != c.want {
			t.Errorf("Ancestry.IsAncestor(%d,%d) = %v", c.a, c.b, got)
		}
	}
	// Region subtrees: 0 spans [0,4), 1 spans [1,3), leaves span
	// themselves.
	for i, want := range []int{4, 3, 3, 4, 5} {
		if got := anc.End(i); got != want {
			t.Errorf("End(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestInstanceLookup(t *testing.T) {
	tr := buildTree()
	if got := tr.FindInstance(Instance{Stmt: 2, Occ: 2}); got != 3 {
		t.Errorf("FindInstance = %d", got)
	}
	if got := tr.FindInstance(Instance{Stmt: 2, Occ: 3}); got != -1 {
		t.Errorf("missing instance = %d, want -1", got)
	}
	if got := tr.Occurrences(2); got != 2 {
		t.Errorf("Occurrences(2) = %d", got)
	}
	if got := tr.Occurrences(99); got != 0 {
		t.Errorf("Occurrences(99) = %d", got)
	}
	if got := tr.InstancesOf(2); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("InstancesOf(2) = %v", got)
	}
	if (Instance{Stmt: 15, Occ: 2}).String() != "S15#2" {
		t.Error("Instance render broken")
	}
}

func TestOutputs(t *testing.T) {
	tr := New()
	tr.Append(Entry{Inst: Instance{Stmt: 1, Occ: 1}, Parent: -1})
	tr.Outputs = append(tr.Outputs,
		Output{Seq: 0, Entry: 0, Arg: 0, Value: 10},
		Output{Seq: 1, Entry: 0, Arg: 1, Value: 20},
	)
	if o := tr.OutputAt(1); o == nil || o.Value != 20 {
		t.Errorf("OutputAt(1) = %v", o)
	}
	if tr.OutputAt(2) != nil || tr.OutputAt(-1) != nil {
		t.Error("out-of-range OutputAt must be nil")
	}
	if got := tr.OutputsOf(0); len(got) != 2 {
		t.Errorf("OutputsOf = %v", got)
	}
	if got := tr.OutputValues(); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Errorf("OutputValues = %v", got)
	}
}

// TestAncestryAgreesWithWalk is a property test: the interval index
// must agree with the parent-chain walk on random properly nested
// forests, the only shape an interpreter run emits. Each entry's parent
// is drawn from the open chain — the previous entry, one of its
// ancestors, or none (a new root).
func TestAncestryAgreesWithWalk(t *testing.T) {
	f := func(picks []uint8) bool {
		tr := New()
		var open []int // the previous entry's ancestor chain, root first
		for i, p := range picks {
			open = open[:int(p)%(len(open)+1)]
			parent := -1
			if len(open) > 0 {
				parent = open[len(open)-1]
			}
			tr.Append(Entry{Inst: Instance{Stmt: 1, Occ: i + 1}, Parent: parent})
			open = append(open, i)
		}
		tr.Finish()
		anc := tr.Ancestry()
		for a := 0; a < tr.Len(); a++ {
			end := a + 1
			for b := 0; b < tr.Len(); b++ {
				want := isAncestorWalk(tr, a, b)
				if anc.IsAncestor(a, b) != want {
					return false
				}
				if want {
					end = b + 1
				}
			}
			if anc.End(a) != end {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	tr := buildTree()
	if tr.String() != "trace{5 entries, 0 outputs}" {
		t.Errorf("String = %q", tr.String())
	}
}
