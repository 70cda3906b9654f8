package trace

import "testing"

// buildLazyBase constructs a finished trace shaped like an
// interpreter run: properly nested regions, an open loop chain at the
// end (entry 5 still open when the trace is cut).
//
//	0 (root)
//	├── 1
//	│   └── 2
//	└── 3
//	4 (root, predicate)
//	└── 5 (open at any cut ≥ 6)
//	    └── 6
func buildLazyBase() *Trace {
	t := New()
	t.Append(Entry{Inst: Instance{Stmt: 1, Occ: 1}, Parent: -1})
	t.Append(Entry{Inst: Instance{Stmt: 2, Occ: 1}, Parent: 0})
	t.Append(Entry{Inst: Instance{Stmt: 3, Occ: 1}, Parent: 1})
	t.Append(Entry{Inst: Instance{Stmt: 2, Occ: 2}, Parent: 0})
	t.Append(Entry{Inst: Instance{Stmt: 4, Occ: 1}, Parent: -1})
	t.Append(Entry{Inst: Instance{Stmt: 5, Occ: 1}, Parent: 4})
	t.Append(Entry{Inst: Instance{Stmt: 6, Occ: 1}, Parent: 5})
	t.Finish()
	return t
}

func TestLazyMatchesEager(t *testing.T) {
	lz := buildLazyBase()
	if lz.Len() != 7 {
		t.Fatalf("len = %d", lz.Len())
	}
	if got := lz.Roots(); len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Errorf("roots = %v", got)
	}
	if got := lz.Children(0); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("children(0) = %v", got)
	}
	if got := lz.FindInstance(Instance{Stmt: 2, Occ: 2}); got != 3 {
		t.Errorf("FindInstance = %d", got)
	}
	if got := lz.Occurrences(2); got != 2 {
		t.Errorf("Occurrences(2) = %d", got)
	}
	if got := lz.InstancesOf(2); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("InstancesOf(2) = %v", got)
	}
}

// TestLazyForkSeededAncestry pins the seeded interval path: a fork of a
// base with a prebuilt ancestry must answer every IsAncestor pair
// exactly like the parent-chain walk, including pairs that mix prefix
// and suffix entries and the re-extended open chain (4 → 5).
func TestLazyForkSeededAncestry(t *testing.T) {
	base := buildLazyBase()
	base.Ancestry() // the fork will seed from this

	f := base.PrefixAt(6).Fork()
	if f.baseAnc == nil {
		t.Fatal("fork did not capture the base ancestry seed")
	}
	// Suffix: the switched run closes 5's region after one more child
	// and continues with a new root region.
	f.Append(Entry{Inst: Instance{Stmt: 7, Occ: 1}, Parent: 5})
	f.Append(Entry{Inst: Instance{Stmt: 8, Occ: 1}, Parent: -1})
	f.Append(Entry{Inst: Instance{Stmt: 9, Occ: 1}, Parent: 7})
	f.Finish()

	anc := f.Ancestry()
	for a := 0; a < f.Len(); a++ {
		for b := 0; b < f.Len(); b++ {
			if got, want := anc.IsAncestor(a, b), isAncestorWalk(f, a, b); got != want {
				t.Errorf("IsAncestor(%d,%d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// TestLazyForkPrefixQueries pins the two-level children and instance
// resolution of a finished fork.
func TestLazyForkPrefixQueries(t *testing.T) {
	base := buildLazyBase()
	f := base.PrefixAt(6).Fork()
	f.Append(Entry{Inst: Instance{Stmt: 6, Occ: 1}, Parent: 5})
	f.Append(Entry{Inst: Instance{Stmt: 3, Occ: 2}, Parent: -1})
	f.Finish()

	// Prefix row served from the prototype; parent 5 gained a suffix
	// child through the override map.
	if got := f.Children(0); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("children(0) = %v", got)
	}
	if got := f.Children(5); len(got) != 1 || got[0] != 6 {
		t.Errorf("children(5) = %v", got)
	}
	if got := f.Roots(); len(got) != 3 || got[2] != 7 {
		t.Errorf("roots = %v", got)
	}
	// Instance inside the cut resolves through the base rows; the
	// occurrence past the cut resolves through the suffix rows; the
	// base's own entry 6 (beyond the cut) must not leak in.
	if got := f.FindInstance(Instance{Stmt: 2, Occ: 2}); got != 3 {
		t.Errorf("FindInstance(S2#2) = %d", got)
	}
	if got := f.FindInstance(Instance{Stmt: 6, Occ: 1}); got != 6 {
		t.Errorf("FindInstance(S6#1) = %d", got)
	}
	if got := f.Occurrences(3); got != 2 {
		t.Errorf("Occurrences(3) = %d", got)
	}
	if got := f.InstancesOf(3); len(got) != 2 || got[0] != 2 || got[1] != 7 {
		t.Errorf("InstancesOf(3) = %v", got)
	}
}
