package slicing

import (
	"eol/internal/cfg"
	"eol/internal/trace"
)

// UnionGraph is the statement-level union dependence graph of the paper's
// prototype: "a union dependence graph, which is static, is also
// constructed ... by unioning all the unique dependences that were
// exercised during the execution of a large number of test cases. Such a
// graph is used to compute potential dependences."
//
// It records, across a set of (typically passing) executions:
//
//   - which definition statements were observed to reach which use
//     statements, per abstract location, and
//   - which statements were observed executing under which branch of
//     which predicate (transitively, via region ancestry).
//
// Definition 1's condition (iv) can then be answered from exercised
// evidence instead of the static potential-reaching analysis: a different
// definition of v "could reach" u if some test run showed a def of v —
// governed by the predicate's other branch — reaching u's statement.
// This is less conservative than static analysis but sensitive to test
// suite coverage (see Ablation D in EXPERIMENTS.md).
type UnionGraph struct {
	// reached[useStmt][sym][defStmt]: a def of sym at defStmt was
	// observed reaching useStmt.
	reached map[int]map[int]map[int]bool
	// governed[stmt][{pred,label}]: stmt was observed executing
	// (transitively) under pred taking label.
	governed map[int]map[govKey]bool
	// Traces counts the executions folded in.
	Traces int
}

type govKey struct {
	pred  int
	label cfg.Label
}

// NewUnionGraph creates an empty union graph.
func NewUnionGraph() *UnionGraph {
	return &UnionGraph{
		reached:  map[int]map[int]map[int]bool{},
		governed: map[int]map[govKey]bool{},
	}
}

// AddTrace folds one execution into the union graph.
func (u *UnionGraph) AddTrace(t *trace.Trace) {
	u.Traces++
	// Governing pairs per entry, computed by walking parents; memoized
	// per entry index within this trace.
	type stackItem struct {
		pred  int
		label cfg.Label
	}
	govOf := make([][]stackItem, t.Len())
	for i := 0; i < t.Len(); i++ {
		e := t.At(i)
		if e.Parent >= 0 {
			pe := t.At(int(e.Parent))
			govOf[i] = append(append([]stackItem{}, govOf[e.Parent]...),
				stackItem{pred: pe.Inst.Stmt, label: pe.Branch})
		}
		stmt := e.Inst.Stmt
		gm := u.governed[stmt]
		if gm == nil {
			gm = map[govKey]bool{}
			u.governed[stmt] = gm
		}
		for _, g := range govOf[i] {
			gm[govKey{pred: g.pred, label: g.label}] = true
		}
		for _, use := range t.Uses(i) {
			if use.Def < 0 || use.Sym < 0 {
				continue
			}
			defStmt := t.At(int(use.Def)).Inst.Stmt
			rm := u.reached[stmt]
			if rm == nil {
				rm = map[int]map[int]bool{}
				u.reached[stmt] = rm
			}
			sm := rm[int(use.Sym)]
			if sm == nil {
				sm = map[int]bool{}
				rm[int(use.Sym)] = sm
			}
			sm[defStmt] = true
		}
	}
}

// PotentialBranch answers Definition 1 condition (iv) from exercised
// evidence: was some definition of sym — observed under pred's *other*
// branch — ever seen reaching useStmt?
func (u *UnionGraph) PotentialBranch(pred int, taken cfg.Label, useStmt, sym int) bool {
	opposite := taken.Negate()
	for defStmt := range u.reached[useStmt][sym] {
		if u.governed[defStmt][govKey{pred: pred, label: opposite}] {
			return true
		}
	}
	return false
}

// NumReachedPairs reports the number of distinct (use, sym, def) triples.
func (u *UnionGraph) NumReachedPairs() int {
	n := 0
	for _, syms := range u.reached {
		for _, defs := range syms {
			n += len(defs)
		}
	}
	return n
}
