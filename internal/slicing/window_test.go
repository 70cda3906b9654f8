package slicing_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"eol/internal/bench"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/lang/sem"
	"eol/internal/slicing"
	"eol/internal/testsupport"
	"eol/internal/trace"
)

// fullScanPotentialDeps is the reference PD(u): for every use of u and
// every candidate predicate, it visits each instance from the first one
// and asks condition (iv) per instance. PotentialDeps must return the
// same dependences in the same order while visiting only the instances
// between the use's reaching definition and u, and deciding (iv) once
// per predicate statement and branch.
func fullScanPotentialDeps(cx *slicing.Context, u int) []slicing.PDep {
	t := cx.T
	info := cx.C.Info
	ue := t.At(u)
	useStmt := ue.Inst.Stmt
	uf := info.StmtFunc[useStmt]
	if uf == nil {
		return nil
	}
	anc := t.Ancestry()
	var allPreds []int
	for _, s := range info.Stmts {
		if ast.IsPredicate(s) {
			allPreds = append(allPreds, s.ID())
		}
	}

	var res []slicing.PDep
	seen := map[slicing.PDep]bool{}
	for _, use := range t.Uses(u) {
		if use.Sym < 0 {
			continue
		}
		symID := int(use.Sym)
		sym := info.Symbols[symID]
		candidates := uf.StmtIDs
		if cx.CrossFunction && sym.Kind == sem.Global {
			candidates = allPreds
		}
		for _, ps := range candidates {
			if !ast.IsPredicate(info.Stmt(ps)) {
				continue
			}
			sameFn := info.StmtFunc[ps] == uf
			for _, p := range t.InstancesOf(ps) {
				if p >= u {
					break
				}
				pe := t.At(p)
				if use.Def != trace.NoDef && int(use.Def) >= p {
					continue
				}
				if anc.IsAncestor(p, u) {
					continue
				}
				if sym.Kind != sem.Global && pe.Frame != ue.Frame {
					continue
				}
				switch {
				case cx.Union != nil:
					if !cx.Union.PotentialBranch(ps, pe.Branch, useStmt, symID) {
						continue
					}
				case sameFn:
					if !cx.Flow.PotentialBranch(ps, pe.Branch, useStmt, symID) {
						continue
					}
				default:
					if !cx.Flow.PotentialBranchGlobal(ps, pe.Branch, symID) {
						continue
					}
				}
				d := slicing.PDep{Pred: p, UseSym: symID, UseElem: use.Elem}
				if !seen[d] {
					seen[d] = true
					res = append(res, d)
				}
			}
		}
	}
	sort.Slice(res, func(i, j int) bool { return res[i].Pred < res[j].Pred })
	return res
}

// pdCounts tallies the dependences compared per source, so the test can
// insist that each source was exercised.
type pdCounts struct{ static, union, cross int }

// comparePotentialDeps checks PotentialDeps against the full scan on
// every entry of tr, with the static source, the union graph u and the
// cross-function extension.
func comparePotentialDeps(t *testing.T, name string, c *interp.Compiled, tr *trace.Trace, u *slicing.UnionGraph, n *pdCounts) {
	t.Helper()
	for _, src := range []struct {
		label string
		union *slicing.UnionGraph
		cross bool
		count *int
	}{
		{"static", nil, false, &n.static},
		{"union", u, false, &n.union},
		{"cross-function", nil, true, &n.cross},
	} {
		cx := slicing.NewContext(c, tr)
		cx.Union, cx.CrossFunction = src.union, src.cross
		for i := 0; i < tr.Len(); i++ {
			got, want := cx.PotentialDeps(i), fullScanPotentialDeps(cx, i)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, %s source: PD(%d) (%v) = %v, full scan %v",
					name, src.label, i, tr.At(i).Inst, got, want)
			}
			*src.count += len(want)
		}
	}
}

// unionOf folds tr and the runs of c on inputs into a union graph.
func unionOf(t *testing.T, c *interp.Compiled, tr *trace.Trace, inputs [][]int64) *slicing.UnionGraph {
	t.Helper()
	u := slicing.NewUnionGraph()
	u.AddTrace(tr)
	for _, in := range inputs {
		if r := interp.Run(c, interp.Options{Input: in, BuildTrace: true}); r.Err == nil {
			u.AddTrace(r.Trace)
		}
	}
	return u
}

// TestPotentialDepsMatchFullScan pins the windowed PD(u) walk to the
// full scan on every entry of the nine benchmark cases' failing traces,
// of the 30-line grep subject and of random programs.
func TestPotentialDepsMatchFullScan(t *testing.T) {
	var n pdCounts
	for _, bc := range bench.Cases() {
		p, err := bc.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		u := unionOf(t, p.Faulty, p.Run.Trace, bc.PassingInputs)
		comparePotentialDeps(t, bc.Name(), p.Faulty, p.Run.Trace, u, &n)
	}

	grep := bench.ByName("grepsim/V4-F2")
	src, err := grep.FaultySrc()
	if err != nil {
		t.Fatal(err)
	}
	c := testsupport.Compile(t, src)
	r := testsupport.Run(t, c, bench.ScaledGrepInput(30))
	comparePotentialDeps(t, "grep, 30 lines", c, r.Trace, unionOf(t, c, r.Trace, grep.PassingInputs), &n)

	programs := 40
	if testing.Short() {
		programs = 10
	}
	rnd := rand.New(rand.NewSource(26))
	for i := 0; i < programs; i++ {
		src := testsupport.RandomProgram(rnd, testsupport.GenConfig{})
		c := testsupport.Compile(t, src)
		in := testsupport.RandomInput(rnd, 8)
		r := testsupport.Run(t, c, in)
		alt := [][]int64{testsupport.RandomInput(rnd, 8), testsupport.RandomInput(rnd, 8)}
		comparePotentialDeps(t, "random program\n"+src, c, r.Trace, unionOf(t, c, r.Trace, alt), &n)
	}

	t.Logf("compared %d static, %d union and %d cross-function dependences", n.static, n.union, n.cross)
	if n.static == 0 || n.union == 0 || n.cross <= n.static {
		t.Fatalf("vacuous comparison: %d static, %d union, %d cross-function dependences", n.static, n.union, n.cross)
	}
}
