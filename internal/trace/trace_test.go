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
		if got := tr.IsAncestor(c.a, c.b); got != c.want {
			t.Errorf("IsAncestor(%d,%d) = %v", c.a, c.b, got)
		}
		if got := anc.IsAncestor(c.a, c.b); got != c.want {
			t.Errorf("Ancestry.IsAncestor(%d,%d) = %v", c.a, c.b, got)
		}
	}
	if tr.RegionDepth(0) != 0 || tr.RegionDepth(2) != 2 || tr.RegionDepth(4) != 0 {
		t.Errorf("depths: %d %d %d", tr.RegionDepth(0), tr.RegionDepth(2), tr.RegionDepth(4))
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

// TestAncestryAgreesWithWalk is a property test: the Euler-tour index
// must agree with the parent-chain walk on random forests.
func TestAncestryAgreesWithWalk(t *testing.T) {
	f := func(parents []uint8) bool {
		tr := New()
		for i, p := range parents {
			parent := int(p)%(i+1) - 1 // in [-1, i-1]
			tr.Append(Entry{Inst: Instance{Stmt: 1, Occ: i + 1}, Parent: parent})
		}
		tr.Finish()
		if tr.Len() == 0 {
			return true
		}
		anc := tr.Ancestry()
		for a := 0; a < tr.Len(); a++ {
			for b := 0; b < tr.Len(); b++ {
				if anc.IsAncestor(a, b) != tr.IsAncestor(a, b) {
					return false
				}
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
