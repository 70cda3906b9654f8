package region

import (
	"slices"
	"testing"

	"eol/internal/cfg"
	"eol/internal/interp"
	"eol/internal/testsupport"
	"eol/internal/trace"
)

const src = `
func main() {
    var t = read();
    var i = 0;
    if (t) {
        i = 1;
    }
    while (i < 2) {
        i = i + 1;
    }
    print(i);
}`

func run(t *testing.T) (*interp.Compiled, *trace.Trace) {
	t.Helper()
	c := testsupport.Compile(t, src)
	r := testsupport.Run(t, c, []int64{1})
	return c, r.Trace
}

func inst(t *testing.T, c *interp.Compiled, tr *trace.Trace, frag string, occ int) int {
	t.Helper()
	id := testsupport.StmtID(t, c, frag)
	i := tr.FindInstance(trace.Instance{Stmt: id, Occ: occ})
	if i < 0 {
		t.Fatalf("%s#%d not executed", frag, occ)
	}
	return i
}

func TestWholeRegion(t *testing.T) {
	_, tr := run(t)
	w := Whole(tr)
	if !w.IsRoot() {
		t.Error("whole region must be root")
	}
	if w.Size() != tr.Len() {
		t.Errorf("root size = %d, want %d", w.Size(), tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		if !w.Contains(i) {
			t.Errorf("root must contain %d", i)
		}
	}
	if w.Parent() != w {
		t.Error("root's parent is itself")
	}
	if w.Branch() != cfg.None || w.HeadStmt() != 0 {
		t.Error("root has no head")
	}
	if _, ok := w.Sibling(); ok {
		t.Error("root has no sibling")
	}
}

func TestRegionNavigation(t *testing.T) {
	c, tr := run(t)
	ifIdx := inst(t, c, tr, "if (t)", 1)
	thenIdx := inst(t, c, tr, "i = 1", 1)

	rThen := Of(tr, thenIdx)
	if rThen.Head != ifIdx {
		t.Errorf("Region(then) headed by %d, want the if %d", rThen.Head, ifIdx)
	}
	if !rThen.Contains(thenIdx) || !rThen.Contains(ifIdx) {
		t.Error("region must contain its head and members")
	}
	if rThen.HeadStmt() != tr.At(ifIdx).Inst.Stmt {
		t.Error("HeadStmt mismatch")
	}
	if rThen.Branch() != cfg.True {
		t.Errorf("if took %v, want True", rThen.Branch())
	}
	sub, ok := rThen.FirstSub()
	if !ok || sub.Head != thenIdx {
		t.Errorf("FirstSub = %v (%v)", sub, ok)
	}
	if _, ok := sub.FirstSub(); ok {
		t.Error("leaf region has no subregions")
	}
}

// subHeads walks r's immediate subregions with FirstSub and Sibling.
func subHeads(r Region) []int {
	var heads []int
	for sub, ok := r.FirstSub(); ok; sub, ok = sub.Sibling() {
		heads = append(heads, sub.Head)
	}
	return heads
}

// checkForest compares FirstSub/Sibling and Size on every region of tr
// with the forest a scan of the Parent fields finds.
func checkForest(t *testing.T, tr *trace.Trace) {
	t.Helper()
	roots, kids := testsupport.ChildrenByParent(tr)
	if got := subHeads(Whole(tr)); !slices.Equal(got, roots) {
		t.Fatalf("root subregions %v, Parent scan %v", got, roots)
	}
	size := make([]int, tr.Len())
	for i := tr.Len() - 1; i >= 0; i-- {
		size[i]++
		if p := tr.At(i).Parent; p >= 0 {
			size[p] += size[i]
		}
	}
	for i, want := range kids {
		r := Region{T: tr, Head: i}
		if got := subHeads(r); !slices.Equal(got, want) {
			t.Fatalf("subregions of %d: %v, Parent scan %v", i, got, want)
		}
		if r.Size() != size[i] {
			t.Fatalf("size of %d = %d, Parent scan %d", i, r.Size(), size[i])
		}
	}
	if Whole(tr).Size() != tr.Len() {
		t.Fatalf("root size = %d, want %d", Whole(tr).Size(), tr.Len())
	}
}

func TestSiblingWalk(t *testing.T) {
	c, tr := run(t)
	checkForest(t, tr)

	// Nested sibling regions across calls, recursion and loops.
	nested := testsupport.Compile(t, `
func f(n) {
    if (n <= 0) { return 0; }
    var s = 0;
    for (var i = 0; i < n; i++) {
        if (i % 2 == 0) { s += f(n - 2); } else { s -= 1; }
    }
    return s;
}
func main() {
    var k = read();
    while (k > 0) {
        print(f(k));
        k = k - 1;
    }
}`)
	checkForest(t, testsupport.Run(t, nested, []int64{4}).Trace)

	// Loop iterations nest: while#2's region is a subregion of while#1's.
	w1 := inst(t, c, tr, "while (i < 2)", 1)
	w2 := inst(t, c, tr, "while (i < 2)", 2)
	r1 := Region{T: tr, Head: w1}
	if !r1.Contains(w2) {
		t.Error("iteration 2 must nest inside iteration 1's region")
	}
	if got := (Region{T: tr, Head: w2}).Parent().Head; got != w1 {
		t.Errorf("parent of iter-2 region = %d, want %d", got, w1)
	}
}

func TestRegionSize(t *testing.T) {
	c, tr := run(t)
	ifIdx := inst(t, c, tr, "if (t)", 1)
	r := Region{T: tr, Head: ifIdx}
	if r.Size() != 2 { // the if + the then assignment
		t.Errorf("if-region size = %d, want 2", r.Size())
	}
}

func TestHeadInstanceAndString(t *testing.T) {
	c, tr := run(t)
	ifIdx := inst(t, c, tr, "if (t)", 1)
	r := Region{T: tr, Head: ifIdx}
	if r.HeadInstance() != tr.At(ifIdx).Inst {
		t.Error("HeadInstance mismatch")
	}
	if r.String() == "" || Whole(tr).String() != "[root]" {
		t.Error("String render broken")
	}
	if (Whole(tr)).HeadInstance() != (trace.Instance{}) {
		t.Error("root HeadInstance must be zero")
	}
}
