// Package slicing implements the two slicing baselines of the PLDI 2007
// paper:
//
//   - classic dynamic slicing (Korel-Laski): backward closure over the
//     explicit (data + control) dynamic dependences — the DS columns of
//     Table 2, which miss every execution omission error;
//   - relevant slicing (Gyimóthy et al., ESEC/FSE 1999): the dynamic
//     dependence graph augmented with *potential dependence* edges per
//     Definition 1 — the RS columns of Table 2, which capture the errors
//     but blow up the dynamic slice size.
//
// Potential dependences are also the candidate set that the demand-driven
// locator (Algorithm 2) verifies with predicate switching.
package slicing

import (
	"sort"

	"eol/internal/dataflow"
	"eol/internal/depgraph"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/lang/sem"
	"eol/internal/trace"
)

// Context bundles the compiled program, its static analyses and one
// failing trace.
type Context struct {
	C    *interp.Compiled
	Flow *dataflow.Analysis
	T    *trace.Trace

	// Union, when non-nil, answers Definition 1's condition (iv) from the
	// union dependence graph of exercised test executions (the paper's
	// prototype strategy) instead of the static potential-reaching
	// analysis. See UnionGraph.
	Union *UnionGraph

	// CrossFunction extends PD(u) across function boundaries for global
	// locations: predicates in *other* functions whose untaken branch
	// governs a definition of the global become candidates too
	// (conservatively — no interprocedural reaches-check). This removes
	// the intraprocedural limitation for callee-side omissions at the
	// cost of more candidates to verify.
	CrossFunction bool

	allPreds []int // cached predicate statement IDs, all functions
}

// predicateStmts returns every predicate statement ID in the program.
func (cx *Context) predicateStmts() []int {
	if cx.allPreds == nil {
		for _, s := range cx.C.Info.Stmts {
			if ast.IsPredicate(s) {
				cx.allPreds = append(cx.allPreds, s.ID())
			}
		}
		if cx.allPreds == nil {
			cx.allPreds = []int{}
		}
	}
	return cx.allPreds
}

// NewContext wraps trace t of program c, with c's shared static
// analysis (dataflow.Of).
func NewContext(c *interp.Compiled, t *trace.Trace) *Context {
	return &Context{C: c, Flow: dataflow.Of(c), T: t}
}

// Dynamic computes the classic dynamic slice: the backward closure of the
// seeds over explicit dependences only.
func Dynamic(g *depgraph.Graph, seeds ...int) *depgraph.Set {
	return g.BackwardSlice(depgraph.Explicit, seeds...)
}

// PDep is one potential dependence of a use entry: the use (symbol and
// element) may have received a different definition had the predicate
// instance Pred taken its other branch (Definition 1).
type PDep struct {
	Pred    int   // trace index of the predicate instance
	UseSym  int   // symbol whose definition could have differed
	UseElem int64 // element for array uses (trace.ScalarElem for scalars)
}

// PotentialDeps computes PD(u) for trace entry u: every earlier predicate
// instance satisfying Definition 1's four conditions for some use of u.
//
// Condition mapping:
//
//	(i)   the predicate instance precedes u in the trace;
//	(ii)  u is not (transitively) dynamically control dependent on it —
//	      such dependences are already explicit;
//	(iii) the use's dynamic reaching definition precedes the predicate
//	      instance;
//	(iv)  statically, a definition of the used location is governed by
//	      the predicate's *other* branch and may reach u's statement
//	      (dataflow.PotentialBranch).
//
// (i) and (iii) bound the candidates of each use to the instance window
// strictly between its reaching definition and u, which is found by
// binary search. (iv) depends only on the predicate statement, the
// branch it took, u's statement and the symbol, so it is decided once
// per predicate statement and branch, not per instance.
//
// The static side is intraprocedural: predicate and use must be in the
// same function (calls are summarized as global may-defs). For local
// locations the instances must additionally share an activation.
func (cx *Context) PotentialDeps(u int) []PDep {
	t := cx.T
	ue := t.At(u)
	useStmt := ue.Inst.Stmt
	uf := cx.C.Info.StmtFunc[useStmt]
	if uf == nil {
		return nil
	}
	anc := t.Ancestry()

	var res []PDep
	seen := map[PDep]bool{}
	for _, use := range t.Uses(u) {
		if use.Sym < 0 {
			continue // return-value plumbing
		}
		// (i) and (iii): the window (use.Def, u). NoDef means the value
		// predates everything.
		lo := max(int(use.Def)+1, 0)
		if lo >= u {
			continue
		}
		symID := int(use.Sym)
		sym := cx.C.Info.Symbols[symID]
		// Candidate predicate statements: the same function's predicates,
		// or (CrossFunction, globals only) every predicate in the program.
		candidates := uf.StmtIDs
		if cx.CrossFunction && sym.Kind == sem.Global {
			candidates = cx.predicateStmts()
		}
		var defs []int // static definitions of sym reaching useStmt
		defsDone := false
		for _, ps := range candidates {
			if !ast.IsPredicate(cx.C.Info.Stmt(ps)) {
				continue
			}
			insts := t.InstancesOf(ps) // in execution order
			i := sort.SearchInts(insts, lo)
			sameFn := cx.C.Info.StmtFunc[ps] == uf
			var iv [3]int8 // (iv) per branch label: 0 undecided, 1 holds, -1 not
			for ; i < len(insts) && insts[i] < u; i++ {
				p := insts[i]
				// (ii) no dynamic control dependence.
				if anc.IsAncestor(p, u) {
					continue
				}
				pe := t.At(p)
				// Locals require a shared activation.
				if sym.Kind != sem.Global && pe.Frame != ue.Frame {
					continue
				}
				// (iv) a different definition could reach u on the other
				// branch: static potential-reaching analysis (precise
				// within a function, conservative across functions for
				// globals), or exercised evidence from the union graph
				// when one is supplied.
				if iv[pe.Branch] == 0 {
					var holds bool
					switch {
					case cx.Union != nil:
						holds = cx.Union.PotentialBranch(ps, pe.Branch, useStmt, symID)
					case sameFn:
						if !defsDone {
							defs, defsDone = cx.Flow.DefsReaching(useStmt, symID), true
						}
						holds = cx.Flow.ControlledBy(ps, pe.Branch.Negate()).HasAny(defs)
					default:
						holds = cx.Flow.PotentialBranchGlobal(ps, pe.Branch, symID)
					}
					iv[pe.Branch] = -1
					if holds {
						iv[pe.Branch] = 1
					}
				}
				if iv[pe.Branch] < 0 {
					continue
				}
				d := PDep{Pred: p, UseSym: symID, UseElem: use.Elem}
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

// Relevant computes the relevant slice: the backward closure of the seeds
// over explicit dependences plus potential dependences, which are
// discovered on demand for every entry that enters the slice and recorded
// in g as Potential edges.
func (cx *Context) Relevant(g *depgraph.Graph, seeds ...int) *depgraph.Set {
	slice := depgraph.NewSet(cx.T.Len())
	var work []int
	for _, s := range seeds {
		if slice.Add(s) {
			work = append(work, s)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, pd := range cx.PotentialDeps(n) {
			g.AddEdge(n, pd.Pred, depgraph.Potential)
		}
		g.EachDep(n, depgraph.Explicit|depgraph.Potential, func(e depgraph.Edge) {
			if slice.Add(e.To) {
				work = append(work, e.To)
			}
		})
	}
	return slice
}

// FailureSeeds returns the slicing seeds for a wrong output event: the
// producing print entry. Returns -1 if the output index is out of range.
func FailureSeeds(t *trace.Trace, outputSeq int) int {
	o := t.OutputAt(outputSeq)
	if o == nil {
		return -1
	}
	return o.Entry
}

// FirstWrongOutput compares actual output values against expected ones
// and returns the sequence number of the first mismatch. The second
// result distinguishes "all match" (-1, false → no failure) from a
// missing-output failure: if actual is a strict prefix of expected, the
// failure is the absence of output len(actual), reported with ok=true and
// missing=true.
func FirstWrongOutput(actual, expected []int64) (seq int, missing, ok bool) {
	for i := range actual {
		if i >= len(expected) {
			return i, false, true // extra output is a wrong output
		}
		if actual[i] != expected[i] {
			return i, false, true
		}
	}
	if len(actual) < len(expected) {
		return len(actual), true, true
	}
	return -1, false, false
}
