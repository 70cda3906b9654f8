// Package staticdep builds the static program-dependence graph (SPDG)
// of a compiled MiniC program: one whole-program, statement-level graph
// fusing
//
//   - static control dependence (the postdominator-based CDKids relation
//     internal/cfg computes per function),
//   - intraprocedural reaching definitions for locals and parameters
//     (internal/dataflow),
//   - interprocedural, flow-sensitive reaching definitions for globals —
//     a supergraph fixpoint threading definition sets through call sites
//     with kills at strong writes, strictly sharper than the
//     flow-insensitive mod/ref condition dataflow.PotentialBranchGlobal
//     uses to generate cross-function candidates, and
//   - interprocedural summary edges: call site → callee body (execution
//     and argument influence) and return statement → call site (return
//     value influence), layered on transitive mod/ref summaries over the
//     call graph, and
//   - constant-index element refinement for arrays: a def→use data edge
//     is dropped when both statements access the array only at provably
//     constant, disjoint element indexes, with the matching hazard
//     exemption for provably in-bounds constant indexing.
//
// The SPDG reuses internal/depgraph's edge vocabulary and CSR layout
// (rowStart + flat edge array, Kind bitmask; the Summary kind is this
// package's contribution), with statement IDs as nodes. It is computed
// once per compiled program and consumed by the EOL0009/EOL0010 eolvet
// passes and by `slicer -engine`. See docs/STATICDEP.md for the
// construction.
package staticdep

import (
	"sort"

	"eol/internal/cfg"
	"eol/internal/dataflow"
	"eol/internal/depgraph"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/lang/sem"
	"eol/internal/lang/token"
)

// Stats describes one SPDG: node and per-kind edge counts plus the
// predicate cone summary. An edge connecting the same statement pair
// with several kinds counts once per kind.
type Stats struct {
	Nodes         int // statements (IDs 1..Nodes)
	ControlEdges  int
	DataEdges     int
	SummaryEdges  int
	Predicates    int // predicate statements with a precomputed cone
	HarmlessCones int // predicates whose forward cone is hazard-free
}

// Edges returns the total edge count across kinds.
func (s Stats) Edges() int { return s.ControlEdges + s.DataEdges + s.SummaryEdges }

// cone is the precomputed forward closure of one predicate statement
// over the SPDG: every statement whose execution or value could change
// if the predicate's branch were forced the other way.
type cone struct {
	bits     bitset
	harmless bool // no fault-capable or input-consuming statement inside
	silent   bool // harmless and no print statement inside
}

// Graph is the SPDG of one compiled program. It is immutable after New
// and safe for concurrent readers.
type Graph struct {
	info *sem.Info

	n        int             // statement count; node IDs are 1..n
	rowStart []int32         // CSR rows for IDs 0..n (row 0 empty)
	edges    []depgraph.Edge // Edge.To is the successor statement ID

	hazard []bool // 1-based: statement can fault or consumes input
	output []bool // 1-based: print statement

	calls  map[string][]int        // callee -> call-site statement IDs
	mayRef map[string]map[int]bool // fn -> globals read, transitively

	// Interprocedural global reaching definitions.
	gsites  []gsite        // direct global definition sites (index 0.. )
	reachIn map[int]bitset // stmt -> site indices reaching its entry
	live    bitset         // site indices some use actually reads

	cones map[int]*cone

	stats Stats
}

// gsite is one direct definition site of a global symbol. Virtual
// initial-value sites use Stmt 0 and never produce edges or findings.
type gsite struct {
	Stmt   int
	Sym    int
	Strong bool
}

// New builds the SPDG for c. flow may be nil, in which case c's shared
// intraprocedural dataflow analysis (dataflow.Of) is used.
func New(c *interp.Compiled, flow *dataflow.Analysis) *Graph {
	if flow == nil {
		flow = dataflow.Of(c)
	}
	info := c.Info
	g := &Graph{
		info:    info,
		n:       info.NumStmts(),
		calls:   map[string][]int{},
		mayRef:  map[string]map[int]bool{},
		reachIn: map[int]bitset{},
		cones:   map[int]*cone{},
	}
	g.classify()
	g.buildCallGraph()
	g.computeMayRef()
	g.computeGlobalReaching(c)
	g.buildEdges(c, flow)
	g.buildCones()
	return g
}

// Stats returns the SPDG size summary.
func (g *Graph) Stats() Stats { return g.stats }

// NumStmts returns the statement count (node IDs run 1..NumStmts).
func (g *Graph) NumStmts() int { return g.n }

// Succs returns the out-edges of statement id (kinds OR-ed per target).
func (g *Graph) Succs(id int) []depgraph.Edge {
	if id < 1 || id > g.n {
		return nil
	}
	return g.edges[g.rowStart[id]:g.rowStart[id+1]]
}

// Hazard reports whether statement id can fault (indexing, division,
// shifts, assert) or consumes input (read), i.e. whether its appearing
// or vanishing in a switched run can abort the execution or
// desynchronize every later read.
func (g *Graph) Hazard(id int) bool { return id >= 1 && id <= g.n && g.hazard[id] }

// InCone reports whether statement id is in the forward cone of
// predicate pred: reachable from pred's control-dependence kids through
// SPDG edges of any kind. pred itself is a member only when reachable
// through a cycle (e.g. a loop header, whose later iterations the switch
// can create or destroy). Returns false when pred is not a predicate.
func (g *Graph) InCone(pred, id int) bool {
	c := g.cones[pred]
	return c != nil && id >= 1 && id <= g.n && c.bits.get(id)
}

// ConeHarmless reports whether pred's forward cone contains no
// fault-capable or input-consuming statement: switching the predicate
// cannot abort the run or desynchronize its input.
func (g *Graph) ConeHarmless(pred int) bool {
	c := g.cones[pred]
	return c != nil && c.harmless
}

// ConeSilent reports whether pred's forward cone is harmless and
// contains no print statement either — the EOL0009 condition: switching
// the predicate cannot influence any program output.
func (g *Graph) ConeSilent(pred int) bool {
	c := g.cones[pred]
	return c != nil && c.silent
}

// MayRef returns the set of global symbol IDs function fn may read,
// transitively through callees — the ref half of the mod/ref summary
// (dataflow.MayDefineGlobals is the mod half).
func (g *Graph) MayRef(fn string) map[int]bool { return g.mayRef[fn] }

// GlobalDefsReaching returns the statement IDs of direct global
// definition sites of sym that may reach the entry of useStmt through
// the interprocedural supergraph (virtual initial-value sites excluded),
// in ascending order.
func (g *Graph) GlobalDefsReaching(useStmt, sym int) []int {
	bits, ok := g.reachIn[useStmt]
	if !ok {
		return nil
	}
	var res []int
	for i, s := range g.gsites {
		if s.Sym == sym && s.Stmt != 0 && bits.get(i) {
			res = append(res, s.Stmt)
		}
	}
	sort.Ints(res)
	return res
}

// DeadGlobalStores returns the statement IDs of direct global writes
// that no statement in any function can ever read — the EOL0010
// condition — in ascending order. A statement writing several globals is
// reported only if every one of its global writes is dead.
func (g *Graph) DeadGlobalStores() []int {
	deadBy := map[int]bool{}
	liveBy := map[int]bool{}
	for i, s := range g.gsites {
		if s.Stmt == 0 {
			continue
		}
		if g.live.get(i) {
			liveBy[s.Stmt] = true
		} else {
			deadBy[s.Stmt] = true
		}
	}
	var res []int
	for id := range deadBy {
		if !liveBy[id] {
			res = append(res, id)
		}
	}
	sort.Ints(res)
	return res
}

// ---------------------------------------------------------------------------
// construction

// classify computes the per-statement hazard and output flags. An
// IndexExpr whose index folds to a constant provably inside [0, size)
// cannot fault and is therefore not a hazard; every other indexing
// operation is.
func (g *Graph) classify() {
	g.hazard = make([]bool, g.n+1)
	g.output = make([]bool, g.n+1)
	for _, s := range g.info.Stmts {
		id := s.ID()
		if _, ok := s.(*ast.PrintStmt); ok {
			g.output[id] = true
		}
		if a, ok := s.(*ast.AssignStmt); ok {
			switch a.Op {
			case token.QUO_ASSIGN, token.REM_ASSIGN, token.SHL_ASSIGN, token.SHR_ASSIGN:
				g.hazard[id] = true
			}
		}
		ast.InspectExprs(s, func(x ast.Expr) {
			switch t := x.(type) {
			case *ast.IndexExpr:
				sym := g.info.Uses[t.X]
				v, ok := constIndex(t.Index)
				if sym == nil || !sym.IsArray || !ok || v < 0 || v >= sym.Size {
					g.hazard[id] = true
				}
			case *ast.BinaryExpr:
				switch t.Op {
				case token.QUO, token.REM, token.SHL, token.SHR:
					g.hazard[id] = true
				}
			case *ast.CallExpr:
				switch t.Fun.Name {
				case "read", "assert":
					g.hazard[id] = true
				}
			}
		})
	}
}

// constIndex folds an index expression made of literals and fault-free
// pure operators; ok is false for anything involving a variable, a
// call, or an operator whose folding could hide a runtime fault
// (division, shifts). The conservative subset keeps the element
// summaries below trivially sound.
func constIndex(x ast.Expr) (int64, bool) {
	switch t := x.(type) {
	case *ast.IntLit:
		return t.Value, true
	case *ast.UnaryExpr:
		v, ok := constIndex(t.X)
		if !ok {
			return 0, false
		}
		switch t.Op {
		case token.SUB:
			return -v, true
		case token.TILD:
			return ^v, true
		}
	case *ast.BinaryExpr:
		a, aok := constIndex(t.X)
		b, bok := constIndex(t.Y)
		if !aok || !bok {
			return 0, false
		}
		switch t.Op {
		case token.ADD:
			return a + b, true
		case token.SUB:
			return a - b, true
		case token.MUL:
			return a * b, true
		case token.AND:
			return a & b, true
		case token.OR:
			return a | b, true
		case token.XOR:
			return a ^ b, true
		}
	}
	return 0, false
}

// elemAccess summarizes one statement's accesses of one array symbol:
// the constant element indexes it touches, and whether every access of
// that symbol in the statement folded to a constant. Only all-constant
// summaries on both sides admit the disjointness proof that drops a
// data edge.
type elemAccess struct {
	idx      map[int64]bool
	allConst bool
}

func (e *elemAccess) record(v int64, ok bool) {
	if !ok {
		e.allConst = false
		return
	}
	if e.idx == nil {
		e.idx = map[int64]bool{}
	}
	e.idx[v] = true
}

// elemSummary holds the per-statement, per-array-symbol element access
// summaries: defs[stmt][sym] covers write occurrences (an AssignStmt
// whose LHS is an IndexExpr), uses[stmt][sym] covers read occurrences
// (every other IndexExpr, including those inside index expressions, and
// a compound-assign LHS, which reads the element it writes).
type elemSummary struct {
	defs map[int]map[int]*elemAccess
	uses map[int]map[int]*elemAccess
}

func (es *elemSummary) at(m map[int]map[int]*elemAccess, stmt, sym int) *elemAccess {
	by := m[stmt]
	if by == nil {
		by = map[int]*elemAccess{}
		m[stmt] = by
	}
	a := by[sym]
	if a == nil {
		a = &elemAccess{allConst: true}
		by[sym] = a
	}
	return a
}

// disjoint reports whether def statement d and use statement u provably
// touch disjoint element sets of array sym: both sides summarized, both
// all-constant, no common index. A missing summary (whole-array
// definition such as a declaration) or any non-constant index keeps the
// edge — the refinement only ever removes provably value-disconnected
// pairs, so it is a pure precision gain over the symbol-level graph.
func (es *elemSummary) disjoint(d, u int, sym *sem.Symbol) bool {
	if !sym.IsArray {
		return false
	}
	da := es.defs[d][sym.ID]
	ua := es.uses[u][sym.ID]
	if da == nil || ua == nil || !da.allConst || !ua.allConst {
		return false
	}
	for v := range da.idx {
		if ua.idx[v] {
			return false
		}
	}
	return true
}

// computeElemAccess builds the element summaries. The dynamic trace
// records uses per (symbol, element); the symbol-level candidate
// generator cannot see that, so these summaries are where the SPDG
// recovers element precision for constant indexes (a statement writing
// only buf[3] can never produce the reaching definition of a read of
// buf[1]).
func (g *Graph) computeElemAccess() *elemSummary {
	es := &elemSummary{
		defs: map[int]map[int]*elemAccess{},
		uses: map[int]map[int]*elemAccess{},
	}
	for _, s := range g.info.Stmts {
		id := s.ID()
		var defIE *ast.IndexExpr
		compound := false
		if a, ok := s.(*ast.AssignStmt); ok {
			if ix, ok := a.LHS.(*ast.IndexExpr); ok {
				defIE = ix
				compound = a.Op != token.ASSIGN
			}
		}
		ast.InspectExprs(s, func(x ast.Expr) {
			ix, ok := x.(*ast.IndexExpr)
			if !ok {
				return
			}
			sym := g.info.Uses[ix.X]
			if sym == nil || !sym.IsArray {
				return
			}
			v, cok := constIndex(ix.Index)
			if ix == defIE {
				es.at(es.defs, id, sym.ID).record(v, cok)
				if compound {
					es.at(es.uses, id, sym.ID).record(v, cok)
				}
				return
			}
			es.at(es.uses, id, sym.ID).record(v, cok)
		})
	}
	return es
}

// buildCallGraph records user-function call sites (builtins excluded).
func (g *Graph) buildCallGraph() {
	for _, s := range g.info.Stmts {
		id := s.ID()
		for _, callee := range g.info.StmtCalls[id] {
			if _, ok := g.info.Funcs[callee]; ok {
				g.calls[callee] = append(g.calls[callee], id)
			}
		}
	}
	for _, sites := range g.calls {
		sort.Ints(sites)
	}
}

// computeMayRef runs the ref half of the mod/ref fixpoint over the call
// graph, mirroring dataflow's may-def computation.
func (g *Graph) computeMayRef() {
	for name := range g.info.Funcs {
		g.mayRef[name] = map[int]bool{}
	}
	for name, fi := range g.info.Funcs {
		for _, id := range fi.StmtIDs {
			for _, sym := range g.info.StmtUses[id] {
				if sym.Kind == sem.Global {
					g.mayRef[name][sym.ID] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for name, fi := range g.info.Funcs {
			for _, id := range fi.StmtIDs {
				for _, callee := range g.info.StmtCalls[id] {
					for s := range g.mayRef[callee] {
						if !g.mayRef[name][s] {
							g.mayRef[name][s] = true
							changed = true
						}
					}
				}
			}
		}
	}
}

// computeGlobalReaching runs the interprocedural, flow-sensitive
// reaching-definitions fixpoint for globals over the program supergraph:
// per-function iterative RD whose call nodes inject the callee's exit
// set (and feed their own entry set to the callee), iterated across
// functions until entry/exit sets stabilize. Context-insensitive,
// therefore a sound over-approximation of every dynamic flow — including
// flows in switched re-executions — while kills at strong global writes
// and call-site ordering make it strictly sharper than the
// flow-insensitive mod/ref view.
func (g *Graph) computeGlobalReaching(c *interp.Compiled) {
	info := g.info

	// Sites: one virtual initial-value site per global, then every
	// direct global write, in statement order.
	siteIdx := map[[2]int][]int{} // (stmt, sym) -> site indices
	addSite := func(s gsite) {
		idx := len(g.gsites)
		g.gsites = append(g.gsites, s)
		siteIdx[[2]int{s.Stmt, s.Sym}] = append(siteIdx[[2]int{s.Stmt, s.Sym}], idx)
	}
	initBits := newBitset(0)
	for _, sym := range info.Symbols {
		if sym.Kind == sem.Global {
			addSite(gsite{Stmt: 0, Sym: sym.ID})
			initBits = initBits.grow(len(g.gsites))
			initBits.set(len(g.gsites) - 1)
		}
	}
	for _, s := range info.Stmts {
		id := s.ID()
		if info.StmtFunc[id] == nil {
			// Top-level declaration: runs before main, outside every CFG.
			// The virtual initial-value site models it.
			continue
		}
		_, isDecl := s.(*ast.VarDeclStmt)
		for _, sym := range info.StmtDefs[id] {
			if sym.Kind == sem.Global {
				addSite(gsite{Stmt: id, Sym: sym.ID, Strong: !sym.IsArray || isDecl})
			}
		}
	}
	ns := len(g.gsites)
	initBits = initBits.grow(ns)

	// Per-statement direct gen/kill.
	gen := map[int]bitset{}
	kill := map[int]bitset{}
	for _, s := range info.Stmts {
		id := s.ID()
		gb, kb := newBitset(ns), newBitset(ns)
		for _, sym := range info.StmtDefs[id] {
			if sym.Kind != sem.Global {
				continue
			}
			for _, idx := range siteIdx[[2]int{id, sym.ID}] {
				gb.set(idx)
				if g.gsites[idx].Strong {
					for j, other := range g.gsites {
						if other.Sym == sym.ID && j != idx {
							kb.set(j)
						}
					}
				}
			}
		}
		gen[id] = gb
		kill[id] = kb
	}

	// Function names in deterministic order.
	var names []string
	for _, fd := range info.Prog.Funcs {
		names = append(names, fd.Name.Name)
	}

	entryIn := map[string]bitset{}
	exitOut := map[string]bitset{}
	for _, name := range names {
		entryIn[name] = newBitset(ns)
		exitOut[name] = newBitset(ns)
	}
	if _, ok := entryIn["main"]; ok {
		entryIn["main"].or(initBits)
	}

	in := map[string][]bitset{}
	out := map[string][]bitset{}
	for _, name := range names {
		fg := c.CFG.Funcs[name]
		in[name] = make([]bitset, len(fg.Nodes))
		out[name] = make([]bitset, len(fg.Nodes))
		for i := range fg.Nodes {
			in[name][i] = newBitset(ns)
			out[name][i] = newBitset(ns)
		}
	}

	calleeOuts := func(id int) bitset {
		acc := newBitset(ns)
		for _, callee := range info.StmtCalls[id] {
			if o, ok := exitOut[callee]; ok {
				acc.or(o)
			}
		}
		return acc
	}

	for changed := true; changed; {
		changed = false
		for _, name := range names {
			fg := c.CFG.Funcs[name]
			fin, fout := in[name], out[name]
			for pass := true; pass; {
				pass = false
				for _, node := range fg.Nodes {
					newIn := newBitset(ns)
					if node == fg.Entry {
						newIn.or(entryIn[name])
					}
					for _, e := range node.Preds {
						newIn.or(fout[e.To.Idx])
					}
					newOut := newIn.clone()
					if id := node.StmtID(); id != 0 {
						newOut.or(calleeOuts(id))
						newOut.andNot(kill[id])
						newOut.or(gen[id])
					}
					if !newIn.equal(fin[node.Idx]) || !newOut.equal(fout[node.Idx]) {
						fin[node.Idx] = newIn
						fout[node.Idx] = newOut
						pass = true
						changed = true
					}
				}
			}
			if !fin[fg.Exit.Idx].equal(exitOut[name]) {
				exitOut[name] = fin[fg.Exit.Idx].clone()
				changed = true
			}
			// Feed call-site entry sets to callees.
			fi := info.Funcs[name]
			for _, id := range fi.StmtIDs {
				for _, callee := range info.StmtCalls[id] {
					e, ok := entryIn[callee]
					if !ok {
						continue
					}
					node := fg.NodeOf(id)
					if node == nil {
						continue
					}
					add := fin[node.Idx].clone()
					add.or(calleeOuts(id))
					before := e.clone()
					e.or(add)
					if !e.equal(before) {
						changed = true
					}
				}
			}
		}
	}

	g.live = newBitset(ns)
	for _, name := range names {
		fg := c.CFG.Funcs[name]
		fi := info.Funcs[name]
		for _, id := range fi.StmtIDs {
			if node := fg.NodeOf(id); node != nil {
				g.reachIn[id] = in[name][node.Idx]
			}
			for _, sym := range info.StmtUses[id] {
				if sym.Kind != sem.Global {
					continue
				}
				bits := g.reachIn[id]
				for i, s := range g.gsites {
					if s.Sym == sym.ID && bits.get(i) {
						g.live.set(i)
					}
				}
			}
		}
	}
}

// buildEdges assembles the CSR edge array: control (CDKids), data
// (intraprocedural RD for locals/params, supergraph RD for globals) and
// interprocedural summary (call → callee body, return → call site).
func (g *Graph) buildEdges(c *interp.Compiled, flow *dataflow.Analysis) {
	adj := make([]map[int]depgraph.Kind, g.n+1)
	add := func(from, to int, k depgraph.Kind) {
		if from < 1 || from > g.n || to < 1 || to > g.n {
			return
		}
		if adj[from] == nil {
			adj[from] = map[int]depgraph.Kind{}
		}
		adj[from][to] |= k
	}

	for _, fd := range c.Prog.Funcs {
		fg := c.CFG.Funcs[fd.Name.Name]
		for pid, kids := range fg.CDKids {
			for _, label := range []cfg.Label{cfg.True, cfg.False, cfg.None} {
				for _, kid := range kids[label] {
					add(pid, kid, depgraph.Control)
				}
			}
		}
	}

	// Element refinement: the symbol-level RD answers treat an array as
	// one abstract object, but a def and a use whose indexes all fold to
	// constants with disjoint sets cannot exchange a value, so the edge
	// is dropped (elemSummary.disjoint documents the soundness).
	es := g.computeElemAccess()
	for _, s := range g.info.Stmts {
		u := s.ID()
		for _, sym := range g.info.StmtUses[u] {
			if sym.Kind == sem.Global {
				for _, d := range g.GlobalDefsReaching(u, sym.ID) {
					if es.disjoint(d, u, sym) {
						continue
					}
					add(d, u, depgraph.Data)
				}
			} else {
				for _, d := range flow.DefsReaching(u, sym.ID) {
					if es.disjoint(d, u, sym) {
						continue
					}
					add(d, u, depgraph.Data)
				}
			}
		}
	}

	for callee, sites := range g.calls {
		fi := g.info.Funcs[callee]
		for _, site := range sites {
			for _, id := range fi.StmtIDs {
				add(site, id, depgraph.Summary)
			}
		}
	}
	for name, fi := range g.info.Funcs {
		for _, id := range fi.StmtIDs {
			if _, ok := g.info.Stmt(id).(*ast.ReturnStmt); !ok {
				continue
			}
			for _, site := range g.calls[name] {
				add(id, site, depgraph.Summary)
			}
		}
	}

	g.rowStart = make([]int32, g.n+2)
	total := 0
	for id := 1; id <= g.n; id++ {
		total += len(adj[id])
	}
	g.edges = make([]depgraph.Edge, 0, total)
	for id := 1; id <= g.n; id++ {
		g.rowStart[id] = int32(len(g.edges))
		tos := make([]int, 0, len(adj[id]))
		for to := range adj[id] {
			tos = append(tos, to)
		}
		sort.Ints(tos)
		for _, to := range tos {
			k := adj[id][to]
			g.edges = append(g.edges, depgraph.Edge{To: to, Kind: k})
			if k&depgraph.Control != 0 {
				g.stats.ControlEdges++
			}
			if k&depgraph.Data != 0 {
				g.stats.DataEdges++
			}
			if k&depgraph.Summary != 0 {
				g.stats.SummaryEdges++
			}
		}
	}
	g.rowStart[g.n+1] = int32(len(g.edges))
	g.stats.Nodes = g.n
}

// buildCones precomputes, for every predicate statement, the forward
// closure of its control-dependence kids over the SPDG, and the
// harmless/silent summaries. Doing this eagerly keeps Graph immutable
// and race-free for sharing.
func (g *Graph) buildCones() {
	for _, s := range g.info.Stmts {
		if !ast.IsPredicate(s) {
			continue
		}
		p := s.ID()
		bits := newBitset(g.n + 1)
		var work []int
		push := func(id int) {
			if id >= 1 && id <= g.n && !bits.get(id) {
				bits.set(id)
				work = append(work, id)
			}
		}
		// Seed with the control-dependence kids of p (both branches and
		// unconditional kids); p's own condition evaluates identically in
		// the switched run, so p joins only via cycles.
		for i := g.rowStart[p]; i < g.rowStart[p+1]; i++ {
			e := g.edges[i]
			if e.Kind&depgraph.Control != 0 {
				push(e.To)
			}
		}
		for len(work) > 0 {
			id := work[len(work)-1]
			work = work[:len(work)-1]
			for i := g.rowStart[id]; i < g.rowStart[id+1]; i++ {
				push(g.edges[i].To)
			}
		}
		cn := &cone{bits: bits, harmless: true, silent: true}
		for id := 1; id <= g.n; id++ {
			if !bits.get(id) {
				continue
			}
			if g.hazard[id] {
				cn.harmless = false
				cn.silent = false
			}
			if g.output[id] {
				cn.silent = false
			}
		}
		g.cones[p] = cn
		g.stats.Predicates++
		if cn.harmless {
			g.stats.HarmlessCones++
		}
	}
}

// ---------------------------------------------------------------------------
// bitset (private copy of the dataflow idiom)

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) grow(n int) bitset {
	need := (n + 63) / 64
	if len(b) >= need {
		return b
	}
	nb := make(bitset, need)
	copy(nb, b)
	return nb
}

func (b bitset) set(i int)      { b[i/64] |= 1 << uint(i%64) }
func (b bitset) get(i int) bool { return i/64 < len(b) && b[i/64]&(1<<uint(i%64)) != 0 }

func (b bitset) clone() bitset {
	nb := make(bitset, len(b))
	copy(nb, b)
	return nb
}

func (b bitset) or(o bitset) {
	for i := range o {
		if i < len(b) {
			b[i] |= o[i]
		}
	}
}

func (b bitset) andNot(o bitset) {
	for i := range o {
		if i < len(b) {
			b[i] &^= o[i]
		}
	}
}

func (b bitset) equal(o bitset) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}
