package core

import (
	"sort"

	"eol/internal/confidence"
	"eol/internal/depgraph"
	"eol/internal/implicit"
	"eol/internal/lang/ast"
	"eol/internal/lang/sem"
	"eol/internal/lang/token"
)

// The perturbation fallback implements the paper's §5 proposal: when
// predicate switching cannot expose any implicit dependence (the nested-
// predicate soundness gap of Table 5(b)), perturb the *values* feeding
// the candidate predicates instead of their branch outcomes.
//
// Candidate replacement values combine the value profile with boundary
// probing: for every integer literal compared against inside a predicate,
// the values {lit-1, lit, lit+1} are tried — the standard way to cross
// relational boundaries without enumerating the whole integer domain.

// perturbFallback attempts value-perturbation verification for the
// top-ranked candidates after predicate switching produced no edges. It
// returns whether any implicit edge was added.
func (l *locator) perturbFallback() bool {
	probes := l.candidateValues()
	for _, cand := range l.an.FaultCandidates() {
		u := cand.Entry
		added := false
		for _, pd := range l.pd(u) {
			pe := l.cx.T.At(pd.Pred)
			// Perturb the definitions feeding the predicate's condition.
			for _, use := range pe.Uses {
				if use.Def < 0 {
					continue
				}
				defStmt := l.cx.T.At(use.Def).Inst.Stmt
				vals := append([]int64{}, l.profileValues(defStmt)...)
				vals = append(vals, probes...)
				res := l.ver.PerturbVerify(implicit.PerturbRequest{
					Def: use.Def, Use: u, Candidates: vals,
				})
				if res.Dependent {
					l.an.AddEdges(confidence.Arc{From: u, To: use.Def, Kind: depgraph.Implicit})
					l.rep.Stats.ExpandedEdges++
					added = true
				}
			}
		}
		if added {
			return true
		}
	}
	return false
}

func (l *locator) profileValues(stmt int) []int64 {
	if l.spec.Profile == nil {
		return nil
	}
	return l.spec.Profile.Values(stmt)
}

// candidateValues extracts boundary-probe values from the program's
// predicates (memoized per locator).
func (l *locator) candidateValues() []int64 {
	if l.boundaryVals != nil {
		return l.boundaryVals
	}
	set := map[int64]bool{0: true, 1: true, -1: true}
	for _, lit := range comparisonLiterals(l.spec.Program.Info) {
		set[lit-1] = true
		set[lit] = true
		set[lit+1] = true
	}
	vals := make([]int64, 0, len(set))
	for v := range set {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	const maxCandidates = 24
	if len(vals) > maxCandidates {
		vals = vals[:maxCandidates]
	}
	l.boundaryVals = vals
	return vals
}

// comparisonLiterals collects the integer literals that predicates
// compare against.
func comparisonLiterals(info *sem.Info) []int64 {
	var lits []int64
	for _, s := range info.Stmts {
		if !ast.IsPredicate(s) {
			continue
		}
		ast.InspectExprs(s, func(e ast.Expr) {
			b, ok := e.(*ast.BinaryExpr)
			if !ok {
				return
			}
			switch b.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				if lit, ok := b.X.(*ast.IntLit); ok {
					lits = append(lits, lit.Value)
				}
				if lit, ok := b.Y.(*ast.IntLit); ok {
					lits = append(lits, lit.Value)
				}
			}
		})
	}
	return lits
}
