package trace

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
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
	for n := y; n >= 0; n = int(t.At(n).Parent) {
		if n == x {
			return true
		}
	}
	return false
}

// childrenByParent lists the region forest by brute force from the
// Parent fields: kids[p+1] holds entry p's children and kids[0] the
// roots, each in execution order.
func childrenByParent(t *Trace) [][]int {
	kids := make([][]int, t.Len()+1)
	for i := 0; i < t.Len(); i++ {
		p := int(t.At(i).Parent)
		kids[p+1] = append(kids[p+1], i)
	}
	return kids
}

// intervalChildren lists entry p's children (the roots when p is -1) by
// the interval walk: the first child is p+1 and each next sibling starts
// at the previous one's End, while inside End(p).
func intervalChildren(t *Trace, p int) []int {
	anc := t.Ancestry()
	lo, hi := 0, t.Len()
	if p >= 0 {
		lo, hi = p+1, anc.End(p)
	}
	var kids []int
	for c := lo; c < hi; c = anc.End(c) {
		kids = append(kids, c)
	}
	return kids
}

// forestDiff compares the interval walk with childrenByParent for the
// roots and every entry, and returns the first difference or "".
func forestDiff(t *Trace) string {
	for p, want := range childrenByParent(t) {
		if got := intervalChildren(t, p-1); !slices.Equal(got, want) {
			return fmt.Sprintf("children of %d: interval walk %v, Parent scan %v", p-1, got, want)
		}
	}
	return ""
}

func TestTreeStructure(t *testing.T) {
	tr := buildTree()
	if tr.Len() != 5 {
		t.Fatalf("len = %d", tr.Len())
	}
	if got := intervalChildren(tr, -1); !slices.Equal(got, []int{0, 4}) {
		t.Errorf("roots = %v", got)
	}
	if got := intervalChildren(tr, 0); !slices.Equal(got, []int{1, 3}) {
		t.Errorf("children(0) = %v", got)
	}
	if got := intervalChildren(tr, 1); !slices.Equal(got, []int{2}) {
		t.Errorf("children(1) = %v", got)
	}
	if got := intervalChildren(tr, 4); len(got) != 0 {
		t.Errorf("children(4) = %v", got)
	}
	if d := forestDiff(tr); d != "" {
		t.Error(d)
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
			tr.Append(Entry{Inst: Instance{Stmt: 1, Occ: i + 1}, Parent: int32(parent)})
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
		return forestDiff(tr) == ""
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

// TestEntryLayout pins the compact trace layout: entries and records are
// small and hold no pointers, so a trace's entry and record arrays are
// flat memory the garbage collector never scans.
func TestEntryLayout(t *testing.T) {
	for _, c := range []struct {
		typ       reflect.Type
		size, max uintptr
	}{
		{reflect.TypeOf(Entry{}), unsafe.Sizeof(Entry{}), 56},
		{reflect.TypeOf(UseRec{}), unsafe.Sizeof(UseRec{}), 24},
		{reflect.TypeOf(DefRec{}), unsafe.Sizeof(DefRec{}), 16},
	} {
		if c.size > c.max {
			t.Errorf("%v is %d bytes; at most %d", c.typ, c.size, c.max)
		}
		if path := pointerField(c.typ); path != "" {
			t.Errorf("%v holds a pointer: field %s", c.typ, path)
		}
	}
}

// pointerField returns the path of the first field of typ that holds a
// pointer (a pointer, slice, map, string, interface, func or channel),
// or "" if there is none.
func pointerField(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerField(f.Type); p != "" {
				return strings.TrimSuffix(f.Name+"."+p, ".")
			}
		}
		return ""
	case reflect.Array:
		return pointerField(typ.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	}
	return "(" + typ.Kind().String() + ")"
}

// TestRecordsStayContiguous interleaves records the way a call
// statement does — its callee's entries record between the call site's
// own records — and checks each entry reads back its records in
// recording order.
func TestRecordsStayContiguous(t *testing.T) {
	tr := New()
	call := tr.Append(Entry{Inst: Instance{Stmt: 1, Occ: 1}, Parent: -1})
	tr.AddUse(call, UseRec{Sym: 1, Def: NoDef, Elem: ScalarElem, Val: 10})
	tr.AddDef(call, DefRec{Sym: 5, Elem: ScalarElem})
	body := tr.Append(Entry{Inst: Instance{Stmt: 2, Occ: 1}, Parent: int32(call)})
	tr.AddUse(body, UseRec{Sym: 5, Def: int32(call), Elem: ScalarElem, Val: 10})
	tr.AddDef(body, DefRec{Sym: 6, Elem: ScalarElem})
	// Back at the call site: the return value, another operand, and
	// the assignment.
	tr.AddUse(call, UseRec{Sym: RetvalSym, Def: int32(body), Elem: ScalarElem, Val: 11})
	tr.AddUse(call, UseRec{Sym: 2, Def: NoDef, Elem: 3, Val: 12})
	tr.AddDef(call, DefRec{Sym: 1, Elem: ScalarElem})
	tr.Finish()

	if got, want := tr.Uses(call), []UseRec{
		{Sym: 1, Def: NoDef, Elem: ScalarElem, Val: 10},
		{Sym: RetvalSym, Def: int32(body), Elem: ScalarElem, Val: 11},
		{Sym: 2, Def: NoDef, Elem: 3, Val: 12},
	}; !slices.Equal(got, want) {
		t.Errorf("call uses = %v, want %v", got, want)
	}
	if got, want := tr.Defs(call), []DefRec{{Sym: 5, Elem: ScalarElem}, {Sym: 1, Elem: ScalarElem}}; !slices.Equal(got, want) {
		t.Errorf("call defs = %v, want %v", got, want)
	}
	if got, want := tr.Uses(body), []UseRec{{Sym: 5, Def: int32(call), Elem: ScalarElem, Val: 10}}; !slices.Equal(got, want) {
		t.Errorf("body uses = %v, want %v", got, want)
	}
	if got, want := tr.Defs(body), []DefRec{{Sym: 6, Elem: ScalarElem}}; !slices.Equal(got, want) {
		t.Errorf("body defs = %v, want %v", got, want)
	}
}

// TestRecordOnSharedPrefixPanics: a fork's prefix entries belong to the
// base trace, so recording on them through the fork must fail loudly
// instead of writing into the fork's own arenas or the base's.
func TestRecordOnSharedPrefixPanics(t *testing.T) {
	base := New()
	base.Append(Entry{Inst: Instance{Stmt: 1, Occ: 1}, Parent: -1})
	base.AddUse(0, UseRec{Sym: 1, Def: NoDef, Elem: ScalarElem})
	base.Append(Entry{Inst: Instance{Stmt: 2, Occ: 1}, Parent: -1})
	base.Finish()
	f := base.PrefixAt(1).Fork()
	for name, record := range map[string]func(){
		"AddUse": func() { f.AddUse(0, UseRec{Sym: 2, Def: NoDef, Elem: ScalarElem}) },
		"AddDef": func() { f.AddDef(0, DefRec{Sym: 2, Elem: ScalarElem}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a shared prefix entry did not panic", name)
				}
			}()
			record()
		}()
	}
	// The suffix records into the fork's own arena; the prefix entry
	// still reads its base record.
	i := f.Append(Entry{Inst: Instance{Stmt: 2, Occ: 1}, Parent: -1})
	f.AddUse(i, UseRec{Sym: 3, Def: 0, Elem: ScalarElem, Val: 7})
	f.Finish()
	if got := f.Uses(0); len(got) != 1 || got[0].Sym != 1 {
		t.Errorf("prefix uses = %v", got)
	}
	if got := f.Uses(1); len(got) != 1 || got[0].Sym != 3 || got[0].Val != 7 {
		t.Errorf("suffix uses = %v", got)
	}
	if got := base.Uses(1); len(got) != 0 {
		t.Errorf("the fork wrote into the base: base uses(1) = %v", got)
	}
}
