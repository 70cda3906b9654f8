// Package proptest holds cross-cutting property-based tests: invariants
// of the dynamic analyses checked over randomly generated MiniC programs
// (internal/testsupport.RandomProgram) rather than hand-written cases.
package proptest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"eol/internal/align"
	"eol/internal/confidence"
	"eol/internal/depgraph"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/oracle"
	"eol/internal/slicing"
	"eol/internal/testsupport"
	"eol/internal/trace"
	"eol/internal/vm"
)

const (
	numPrograms = 60
	inputLen    = 24
)

// eachRandomRun generates programs and traced runs and invokes f.
func eachRandomRun(t *testing.T, f func(t *testing.T, c *interp.Compiled, in []int64, r *interp.Result)) {
	t.Helper()
	rnd := rand.New(rand.NewSource(20070611)) // PLDI 2007's opening day
	for i := 0; i < numPrograms; i++ {
		src := testsupport.RandomProgram(rnd, testsupport.GenConfig{})
		c, err := interp.Compile(src)
		if err != nil {
			t.Fatalf("program %d does not compile: %v\n%s", i, err, src)
		}
		testsupport.MustValid(t, c) // generator contract: no ill-formed subjects
		in := testsupport.RandomInput(rnd, inputLen)
		r := interp.Run(c, interp.Options{Input: in, BuildTrace: true})
		if r.Err != nil {
			t.Fatalf("program %d failed at runtime: %v\n%s", i, r.Err, src)
		}
		f(t, c, in, r)
	}
}

// eachIndexedTrace calls f on every kind of trace whose indices Finish
// builds: the tree-walker's trace of each random run, the VM's trace of
// the same run, and VM checkpoint forks of three switched runs (first,
// middle and last predicate instance).
func eachIndexedTrace(t *testing.T, f func(t *testing.T, c *interp.Compiled, label string, tr *trace.Trace)) {
	t.Helper()
	forks := 0
	eachRandomRun(t, func(t *testing.T, c *interp.Compiled, in []int64, r *interp.Result) {
		f(t, c, "tree", r.Trace)
		st := vm.Backend.NewCheckpoints(8)
		orig := vm.Backend.Run(c, interp.Options{Input: in, BuildTrace: true, Checkpoints: st})
		f(t, c, "vm", orig.Trace)
		var preds []int
		for i := 0; i < orig.Trace.Len(); i++ {
			if orig.Trace.At(i).Branch != 0 {
				preds = append(preds, i)
			}
		}
		if len(preds) == 0 {
			return
		}
		for _, p := range []int{preds[0], preds[len(preds)/2], preds[len(preds)-1]} {
			inst := orig.Trace.At(p).Inst
			fork := vm.Backend.RunSwitchedFrom(st, orig.Trace, c, interp.Options{
				Input:      in,
				Switch:     &interp.SwitchPlan{Stmt: inst.Stmt, Occ: inst.Occ},
				StepBudget: 10*orig.Trace.Len() + 1000,
			})
			if fork != nil {
				forks++
				f(t, c, fmt.Sprintf("vm fork switching %v", inst), fork.Trace)
			}
		}
	})
	if forks == 0 {
		t.Fatal("no VM fork happened: the fork indices went unchecked")
	}
}

// TestGeneratedProgramsTerminateCleanly is the generator's own contract.
func TestGeneratedProgramsTerminateCleanly(t *testing.T) {
	eachRandomRun(t, func(t *testing.T, c *interp.Compiled, in []int64, r *interp.Result) {
		if r.Steps == 0 {
			t.Fatal("empty execution")
		}
		if len(r.Outputs) == 0 {
			t.Fatal("no outputs (main always prints)")
		}
	})
}

// TestDeterminismProperty: identical input => identical trace.
func TestDeterminismProperty(t *testing.T) {
	eachRandomRun(t, func(t *testing.T, c *interp.Compiled, in []int64, r *interp.Result) {
		r2 := interp.Run(c, interp.Options{Input: in, BuildTrace: true})
		if r2.Err != nil || r2.Trace.Len() != r.Trace.Len() {
			t.Fatalf("non-deterministic re-run: err=%v len %d vs %d", r2.Err, r2.Trace.Len(), r.Trace.Len())
		}
		for i := 0; i < r.Trace.Len(); i++ {
			a, b := r.Trace.At(i), r2.Trace.At(i)
			if a.Inst != b.Inst || a.Parent != b.Parent || a.Value != b.Value || a.Branch != b.Branch {
				t.Fatalf("entry %d differs: %+v vs %+v", i, a, b)
			}
		}
	})
}

// isAncestorWalk is the reference ancestor test the Ancestry index must
// agree with: walk y's parent chain looking for x (reflexive).
func isAncestorWalk(tr *trace.Trace, x, y int) bool {
	for n := y; n >= 0; n = int(tr.At(n).Parent) {
		if n == x {
			return true
		}
	}
	return false
}

// TestRegionTreeInvariants: parents precede children; regions nest
// properly (each entry's parent is on the open chain, so every region
// is a contiguous interval — what the Ancestry index relies on);
// children are in execution order; every non-root parent is a predicate
// or a call site; the ancestry index agrees with the parent-chain walk;
// Children and Roots list exactly the entries a scan of the parents
// finds.
func TestRegionTreeInvariants(t *testing.T) {
	eachIndexedTrace(t, func(t *testing.T, c *interp.Compiled, label string, tr *trace.Trace) {
		anc := tr.Ancestry()
		kids := make([][]int, tr.Len())
		var roots []int
		var open []int // the previous entry's ancestor chain, root first
		for i := 0; i < tr.Len(); i++ {
			p := int(tr.At(i).Parent)
			if p >= i {
				t.Fatalf("%s: entry %d has parent %d", label, i, p)
			}
			for len(open) > 0 && open[len(open)-1] != p {
				open = open[:len(open)-1]
			}
			if p >= 0 && len(open) == 0 {
				t.Fatalf("%s: entry %d's parent %d is not on the open chain (improper nesting)", label, i, p)
			}
			open = append(open, i)
			if p >= 0 {
				kids[p] = append(kids[p], i)
				st := c.Info.Stmt(tr.At(p).Inst.Stmt)
				isCallSite := len(c.Info.StmtCalls[tr.At(p).Inst.Stmt]) > 0
				if !ast.IsPredicate(st) && !isCallSite {
					t.Fatalf("%s: parent %d (%s) is neither predicate nor call site",
						label, p, ast.StmtString(st))
				}
			} else {
				roots = append(roots, i)
			}
			// Sampled ancestry agreement; with proper nesting, End(i) is
			// right iff End(i)-1 is a descendant of i and End(i) is not.
			if i%7 == 0 {
				for j := i; j < tr.Len() && j < i+11; j++ {
					if anc.IsAncestor(i, j) != isAncestorWalk(tr, i, j) {
						t.Fatalf("%s: ancestry index disagrees for (%d,%d)", label, i, j)
					}
				}
				end := anc.End(i)
				if end <= i || end > tr.Len() || !isAncestorWalk(tr, i, end-1) ||
					(end < tr.Len() && isAncestorWalk(tr, i, end)) {
					t.Fatalf("%s: End(%d) = %d is not the end of its region", label, i, end)
				}
			}
		}
		for i, want := range kids {
			if got := tr.Children(i); !slices.Equal(got, want) {
				t.Fatalf("%s: children of %d = %v, want %v", label, i, got, want)
			}
		}
		if got := tr.Roots(); !slices.Equal(got, roots) {
			t.Fatalf("%s: roots = %v, want %v", label, got, roots)
		}
	})
}

// TestSliceOrderingProperty: for every output, DS ⊆ RS, both contain the
// seed, and all their entries precede-or-equal the seed.
func TestSliceOrderingProperty(t *testing.T) {
	eachRandomRun(t, func(t *testing.T, c *interp.Compiled, in []int64, r *interp.Result) {
		tr := r.Trace
		cx := slicing.NewContext(c, tr)
		for _, o := range tr.Outputs {
			gDS := depgraph.New(tr)
			ds := slicing.Dynamic(gDS, o.Entry)
			gRS := depgraph.New(tr)
			rs := cx.Relevant(gRS, o.Entry)
			if !ds.Has(o.Entry) || !rs.Has(o.Entry) {
				t.Fatal("slice missing its seed")
			}
			anc := tr.Ancestry()
			ds.ForEach(func(e int) {
				if !rs.Has(e) {
					t.Fatalf("DS entry %d not in RS", e)
				}
				// Entries are allocated pre-order, so a callee executed
				// *during* the seed statement has a larger index; every
				// slice entry either precedes the seed or lies in its
				// region subtree.
				if e > o.Entry && !anc.IsAncestor(o.Entry, e) {
					t.Fatalf("slice entry %d after the seed %d and outside its region", e, o.Entry)
				}
			})
			break // one output per program keeps the test fast
		}
	})
}

// TestSelfPairingAllBenign: pairing a trace against an identical run
// marks every entry benign — the ground-truth oracle's sanity condition.
func TestSelfPairingAllBenign(t *testing.T) {
	eachRandomRun(t, func(t *testing.T, c *interp.Compiled, in []int64, r *interp.Result) {
		r2 := interp.Run(c, interp.Options{Input: in, BuildTrace: true})
		p := oracle.Pair(r.Trace, r2.Trace)
		for e := 0; e < r.Trace.Len(); e++ {
			if !p.Benign(e) {
				t.Fatalf("self-pairing marked entry %d (%v) corrupted",
					e, r.Trace.At(e).Inst)
			}
		}
	})
}

// TestSwitchAlignmentProperties: for a sampled predicate instance p,
// (a) the switched run marks p switched and flips its branch,
// (b) every entry before p matches itself under alignment,
// (c) Match is a partial injection: no two distinct original points map
// to the same switched point.
func TestSwitchAlignmentProperties(t *testing.T) {
	eachRandomRun(t, func(t *testing.T, c *interp.Compiled, in []int64, r *interp.Result) {
		tr := r.Trace
		// pick the middlemost predicate instance
		pIdx := -1
		for i := tr.Len() / 2; i < tr.Len(); i++ {
			if ast.IsPredicate(c.Info.Stmt(tr.At(i).Inst.Stmt)) {
				pIdx = i
				break
			}
		}
		if pIdx < 0 {
			return
		}
		p := tr.At(pIdx).Inst
		sw := interp.Run(c, interp.Options{
			Input: in, BuildTrace: true,
			Switch:     &interp.SwitchPlan{Stmt: p.Stmt, Occ: p.Occ},
			StepBudget: 20 * tr.Len(),
		})
		if sw.Err != nil || !sw.SwitchApplied {
			return
		}
		pPrime := sw.Trace.FindInstance(p)
		if pPrime < 0 {
			t.Fatal("switched predicate instance missing from its own run")
		}
		if sw.Trace.At(pPrime).Branch == tr.At(pIdx).Branch {
			t.Fatal("switch did not flip the branch")
		}

		anc := tr.Ancestry()
		seen := map[int]int{}
		for u := 0; u < tr.Len(); u++ {
			if u != pIdx && anc.IsAncestor(pIdx, u) {
				continue // inside p's region: out of Match's contract
			}
			m, ok := align.Match(tr, sw.Trace, p, u)
			if u < pIdx {
				// prefix identity: every earlier point matches itself
				if !ok || m != u {
					t.Fatalf("prefix entry %d matched (%d,%v), want itself", u, m, ok)
				}
			}
			if ok {
				if prev, dup := seen[m]; dup {
					t.Fatalf("entries %d and %d both match %d", prev, u, m)
				}
				seen[m] = u
				if sw.Trace.At(m).Inst.Stmt != tr.At(u).Inst.Stmt {
					t.Fatalf("entry %d (S%d) matched a different statement S%d",
						u, tr.At(u).Inst.Stmt, sw.Trace.At(m).Inst.Stmt)
				}
			}
		}
	})
}

// TestPotentialDepsRespectDefinition: every PD instance satisfies the
// checkable conditions of Definition 1: it precedes the use, it is a
// predicate, and the use is not its region descendant.
func TestPotentialDepsRespectDefinition(t *testing.T) {
	eachRandomRun(t, func(t *testing.T, c *interp.Compiled, in []int64, r *interp.Result) {
		tr := r.Trace
		cx := slicing.NewContext(c, tr)
		anc := tr.Ancestry()
		// sample a few entries
		for i := 0; i < tr.Len(); i += 1 + tr.Len()/10 {
			for _, pd := range cx.PotentialDeps(i) {
				if pd.Pred >= i {
					t.Fatalf("PD instance %d does not precede use %d", pd.Pred, i)
				}
				if !ast.IsPredicate(c.Info.Stmt(tr.At(pd.Pred).Inst.Stmt)) {
					t.Fatalf("PD instance %d is not a predicate", pd.Pred)
				}
				if anc.IsAncestor(pd.Pred, i) {
					t.Fatalf("use %d is control dependent on its PD %d", i, pd.Pred)
				}
			}
		}
	})
}

// TestOccurrenceIndexesAgree: InstancesOf and Occurrences and
// FindInstance are mutually consistent, InstancesOf lists exactly the
// entries of its statement, and FindInstance finds no occurrence past
// the last.
func TestOccurrenceIndexesAgree(t *testing.T) {
	eachIndexedTrace(t, func(t *testing.T, c *interp.Compiled, label string, tr *trace.Trace) {
		byStmt := map[int][]int{}
		for i := 0; i < tr.Len(); i++ {
			s := tr.At(i).Inst.Stmt
			byStmt[s] = append(byStmt[s], i)
		}
		for id := 1; id <= c.Info.NumStmts(); id++ {
			insts := tr.InstancesOf(id)
			if !slices.Equal(insts, byStmt[id]) {
				t.Fatalf("%s: InstancesOf(S%d) = %v, want %v", label, id, insts, byStmt[id])
			}
			if len(insts) != tr.Occurrences(id) {
				t.Fatalf("%s: S%d: InstancesOf %d vs Occurrences %d", label, id, len(insts), tr.Occurrences(id))
			}
			for k, idx := range insts {
				want := trace.Instance{Stmt: id, Occ: k + 1}
				if tr.At(idx).Inst != want {
					t.Fatalf("%s: S%d instance %d: %v != %v", label, id, k, tr.At(idx).Inst, want)
				}
				if tr.FindInstance(want) != idx {
					t.Fatalf("%s: FindInstance(%v) = %d, want %d", label, want, tr.FindInstance(want), idx)
				}
			}
			past := trace.Instance{Stmt: id, Occ: len(insts) + 1}
			if got := tr.FindInstance(past); got != -1 {
				t.Fatalf("%s: FindInstance(%v) = %d past the last occurrence", label, past, got)
			}
		}
	})
}

// TestDynamicCDAgreesWithStaticCD: the interpreter's dynamic control
// parent must always be justified by the static analysis — the parent's
// statement is a static control-dependence source of the child's
// statement (or a call site for callee top-levels).
func TestDynamicCDAgreesWithStaticCD(t *testing.T) {
	eachRandomRun(t, func(t *testing.T, c *interp.Compiled, in []int64, r *interp.Result) {
		tr := r.Trace
		for i := 0; i < tr.Len(); i++ {
			p := int(tr.At(i).Parent)
			if p < 0 {
				continue
			}
			childStmt := tr.At(i).Inst.Stmt
			parentStmt := tr.At(p).Inst.Stmt
			if len(c.Info.StmtCalls[parentStmt]) > 0 &&
				c.Info.StmtFunc[childStmt] != c.Info.StmtFunc[parentStmt] {
				continue // callee top-level under its call site
			}
			if !c.CFG.IsControlDependentOn(childStmt, parentStmt) {
				t.Fatalf("S%d's dynamic parent S%d is not a static CD source",
					childStmt, parentStmt)
			}
		}
	})
}

// TestConfidenceBounds: confidence values stay in [0,1] and pinned
// entries are never fault candidates, over random programs with a random
// output marked wrong.
func TestConfidenceBounds(t *testing.T) {
	eachRandomRun(t, func(t *testing.T, c *interp.Compiled, in []int64, r *interp.Result) {
		tr := r.Trace
		if len(tr.Outputs) < 2 {
			return
		}
		wrong := tr.Outputs[len(tr.Outputs)-1]
		var correct []trace.Output
		for _, o := range tr.Outputs[:len(tr.Outputs)-1] {
			if o.Entry != wrong.Entry {
				correct = append(correct, o)
			}
		}
		g := depgraph.New(tr)
		an := confidence.New(c, g, nil, correct, wrong)
		an.Compute()
		for i := 0; i < tr.Len(); i++ {
			v := an.Confidence(i)
			if v < 0 || v > 1 {
				t.Fatalf("confidence %v out of range at entry %d", v, i)
			}
		}
		for _, cand := range an.FaultCandidates() {
			if an.Confidence(cand.Entry) >= 1 {
				t.Fatalf("pinned entry %d among candidates", cand.Entry)
			}
		}
	})
}

// TestUnionPDRefinesStaticPD: exercised evidence is a refinement of
// static may-analysis — every potential dependence the union graph
// admits, the static analysis admits too (dynamic governance implies
// transitive static control dependence; an observed reaching definition
// implies a static reaching definition).
func TestUnionPDRefinesStaticPD(t *testing.T) {
	eachRandomRun(t, func(t *testing.T, c *interp.Compiled, in []int64, r *interp.Result) {
		tr := r.Trace
		// Union over this failing run plus one alternate-input run.
		u := slicing.NewUnionGraph()
		u.AddTrace(tr)
		alt := interp.Run(c, interp.Options{Input: append([]int64{1, -3}, in...), BuildTrace: true})
		if alt.Err == nil {
			u.AddTrace(alt.Trace)
		}

		cxStatic := slicing.NewContext(c, tr)
		cxUnion := slicing.NewContext(c, tr)
		cxUnion.Union = u

		for i := 0; i < tr.Len(); i += 1 + tr.Len()/8 {
			staticSet := map[slicing.PDep]bool{}
			for _, pd := range cxStatic.PotentialDeps(i) {
				staticSet[pd] = true
			}
			for _, pd := range cxUnion.PotentialDeps(i) {
				if !staticSet[pd] {
					t.Fatalf("union PD %+v of entry %d not admitted by static analysis", pd, i)
				}
			}
		}
	})
}
