// Package cfg builds per-function control-flow graphs for MiniC and
// computes post-dominators and control dependence.
//
// The graphs are at statement granularity: one node per numbered
// statement, plus synthetic Entry and Exit nodes per function. Predicate
// nodes (if/while/for) have True/False labeled out-edges. Control
// dependence follows Ferrante-Ottenstein-Warren: node n is control
// dependent on edge (p, L) iff n post-dominates the L-successor of p but
// does not strictly post-dominate p.
//
// These control-dependence sets drive three things downstream:
//
//   - the interpreter's dynamic control-dependence stack (which yields the
//     region decomposition of Definition 3 of the PLDI 2007 paper),
//   - static potential-dependence computation for relevant slicing
//     (Definition 1), and
//   - the structural checks of the execution alignment algorithm.
package cfg

import (
	"fmt"

	"eol/internal/lang/ast"
	"eol/internal/lang/sem"
)

// Label classifies CFG edges.
type Label int

// Edge labels. Unlabeled edges are fall-through; True/False label the two
// out-edges of predicate nodes.
const (
	None Label = iota
	True
	False
)

// String names the label.
func (l Label) String() string {
	switch l {
	case True:
		return "T"
	case False:
		return "F"
	}
	return "-"
}

// Negate flips True and False; None negates to None.
func (l Label) Negate() Label {
	switch l {
	case True:
		return False
	case False:
		return True
	}
	return None
}

// Node is a CFG node.
type Node struct {
	Idx   int          // dense index within the function graph
	Stmt  ast.Numbered // nil for Entry and Exit
	Succs []Edge
	Preds []Edge

	// IPDom is the immediate post-dominator, nil only for Exit.
	IPDom *Node

	// CD lists the (predicate, label) pairs this node is control
	// dependent on.
	CD []CDep
}

// StmtID returns the statement ID of the node, or 0 for Entry/Exit.
func (n *Node) StmtID() int {
	if n.Stmt == nil {
		return 0
	}
	return n.Stmt.ID()
}

// IsPredicate reports whether the node is a branching statement.
func (n *Node) IsPredicate() bool {
	return n.Stmt != nil && ast.IsPredicate(n.Stmt)
}

// String renders the node for diagnostics.
func (n *Node) String() string {
	if n.Stmt == nil {
		return fmt.Sprintf("#%d", n.Idx)
	}
	return fmt.Sprintf("S%d", n.Stmt.ID())
}

// Edge is a labeled CFG edge.
type Edge struct {
	To    *Node
	Label Label
}

// CDep records one control dependence: on predicate P via branch Label.
type CDep struct {
	P     *Node
	Label Label
}

// Graph is the CFG of one function.
type Graph struct {
	Fn     *sem.FuncInfo
	Entry  *Node
	Exit   *Node
	Nodes  []*Node       // all nodes incl. Entry (index 0) and Exit (index 1)
	ByStmt map[int]*Node // statement ID -> node

	// CDKids maps a predicate statement ID to the statement IDs control
	// dependent on it, per branch label. Inverse of Node.CD, restricted
	// to real statements.
	CDKids map[int]map[Label][]int
}

// NodeOf returns the node for statement id, or nil.
func (g *Graph) NodeOf(id int) *Node { return g.ByStmt[id] }

// Program holds the CFGs of all functions of a MiniC program.
type Program struct {
	Info  *sem.Info
	Funcs map[string]*Graph
}

// GraphOf returns the CFG of the function containing statement id, or nil
// for global declarations.
func (p *Program) GraphOf(id int) *Graph {
	fi := p.Info.StmtFunc[id]
	if fi == nil {
		return nil
	}
	return p.Funcs[fi.Name]
}

// NodeOf returns the CFG node of statement id, or nil for globals.
func (p *Program) NodeOf(id int) *Node {
	g := p.GraphOf(id)
	if g == nil {
		return nil
	}
	return g.NodeOf(id)
}

// ControlDeps returns the set of (predicate stmt ID, label) pairs that
// statement id is directly control dependent on. Empty for top-level
// statements and globals.
func (p *Program) ControlDeps(id int) []CDep {
	n := p.NodeOf(id)
	if n == nil {
		return nil
	}
	return n.CD
}

// IsControlDependentOn reports whether stmt s is directly control
// dependent on predicate p (either branch).
func (p *Program) IsControlDependentOn(s, pred int) bool {
	for _, cd := range p.ControlDeps(s) {
		if cd.P.StmtID() == pred {
			return true
		}
	}
	return false
}

// Build constructs CFGs for every function in info and computes
// post-dominators and control dependence. It returns an error if some
// statement cannot reach the function exit (a statically infinite loop),
// because post-dominance would be undefined there.
func Build(info *sem.Info) (*Program, error) {
	p := &Program{Info: info, Funcs: map[string]*Graph{}}
	for name, fi := range info.Funcs {
		g, err := buildFunc(fi)
		if err != nil {
			return nil, fmt.Errorf("function %s: %w", name, err)
		}
		if err := analyze(g); err != nil {
			return nil, fmt.Errorf("function %s: %w", name, err)
		}
		p.Funcs[name] = g
	}
	return p, nil
}

// ---------------------------------------------------------------------------
// Construction

type builder struct {
	g *Graph
	// loop context for break/continue
	breakTargets    []*pending
	continueTargets []*pending
}

// pending is a set of dangling edges waiting for their target node.
type pending struct {
	edges []*danglingEdge
}

type danglingEdge struct {
	from  *Node
	label Label
}

func (p *pending) add(from *Node, label Label) {
	p.edges = append(p.edges, &danglingEdge{from: from, label: label})
}

func (p *pending) merge(q *pending) {
	p.edges = append(p.edges, q.edges...)
}

func (p *pending) connect(to *Node) {
	for _, e := range p.edges {
		addEdge(e.from, to, e.label)
	}
	p.edges = nil
}

func addEdge(from, to *Node, label Label) {
	from.Succs = append(from.Succs, Edge{To: to, Label: label})
	to.Preds = append(to.Preds, Edge{To: from, Label: label})
}

func (b *builder) newNode(s ast.Numbered) *Node {
	n := &Node{Idx: len(b.g.Nodes), Stmt: s}
	b.g.Nodes = append(b.g.Nodes, n)
	if s != nil {
		b.g.ByStmt[s.ID()] = n
	}
	return n
}

func buildFunc(fi *sem.FuncInfo) (*Graph, error) {
	g := &Graph{Fn: fi, ByStmt: map[int]*Node{}, CDKids: map[int]map[Label][]int{}}
	b := &builder{g: g}
	g.Entry = b.newNode(nil)
	g.Exit = b.newNode(nil)

	frontier := &pending{}
	frontier.add(g.Entry, None)
	frontier = b.buildBlock(fi.Decl.Body, frontier)
	frontier.connect(g.Exit) // implicit return at end of body
	return g, nil
}

// buildBlock threads the frontier through the statements of a block and
// returns the new frontier.
func (b *builder) buildBlock(blk *ast.BlockStmt, frontier *pending) *pending {
	for _, s := range blk.Stmts {
		frontier = b.buildStmt(s, frontier)
	}
	return frontier
}

func (b *builder) buildStmt(s ast.Stmt, frontier *pending) *pending {
	switch n := s.(type) {
	case *ast.BlockStmt:
		return b.buildBlock(n, frontier)

	case *ast.VarDeclStmt, *ast.AssignStmt, *ast.ExprStmt, *ast.PrintStmt:
		node := b.newNode(s.(ast.Numbered))
		frontier.connect(node)
		out := &pending{}
		out.add(node, None)
		return out

	case *ast.ReturnStmt:
		node := b.newNode(n)
		frontier.connect(node)
		addEdge(node, b.g.Exit, None)
		return &pending{} // nothing falls through

	case *ast.BreakStmt:
		node := b.newNode(n)
		frontier.connect(node)
		if len(b.breakTargets) > 0 {
			b.breakTargets[len(b.breakTargets)-1].add(node, None)
		}
		return &pending{}

	case *ast.ContinueStmt:
		node := b.newNode(n)
		frontier.connect(node)
		if len(b.continueTargets) > 0 {
			b.continueTargets[len(b.continueTargets)-1].add(node, None)
		}
		return &pending{}

	case *ast.IfStmt:
		cond := b.newNode(n)
		frontier.connect(cond)
		out := &pending{}

		thenIn := &pending{}
		thenIn.add(cond, True)
		thenOut := b.buildBlock(n.Then, thenIn)
		out.merge(thenOut)

		if n.Else != nil {
			elseIn := &pending{}
			elseIn.add(cond, False)
			elseOut := b.buildStmt(n.Else, elseIn)
			out.merge(elseOut)
		} else {
			out.add(cond, False)
		}
		return out

	case *ast.WhileStmt:
		cond := b.newNode(n)
		frontier.connect(cond)

		brk := &pending{}
		cont := &pending{}
		b.breakTargets = append(b.breakTargets, brk)
		b.continueTargets = append(b.continueTargets, cont)

		bodyIn := &pending{}
		bodyIn.add(cond, True)
		bodyOut := b.buildBlock(n.Body, bodyIn)
		bodyOut.connect(cond)
		cont.connect(cond)

		b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
		b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]

		out := &pending{}
		out.add(cond, False)
		out.merge(brk)
		return out

	case *ast.ForStmt:
		if n.Init != nil {
			frontier = b.buildStmt(n.Init, frontier)
		}
		cond := b.newNode(n)
		frontier.connect(cond)

		brk := &pending{}
		cont := &pending{}
		b.breakTargets = append(b.breakTargets, brk)
		b.continueTargets = append(b.continueTargets, cont)

		bodyIn := &pending{}
		bodyIn.add(cond, True)
		bodyOut := b.buildBlock(n.Body, bodyIn)

		b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
		b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]

		if n.Post != nil {
			bodyOut.merge(cont)
			postOut := b.buildStmt(n.Post, bodyOut)
			postOut.connect(cond)
		} else {
			bodyOut.connect(cond)
			cont.connect(cond)
		}

		out := &pending{}
		if n.Cond != nil {
			out.add(cond, False)
		}
		out.merge(brk)
		return out
	}
	panic(fmt.Sprintf("cfg: unexpected statement %T", s))
}

// ---------------------------------------------------------------------------
// Post-dominators and control dependence

// analyze computes IPDom and CD for every node of g.
func analyze(g *Graph) error {
	// Check every node reaches Exit (otherwise post-dominance is undefined).
	reach := make([]bool, len(g.Nodes))
	var stack []*Node
	stack = append(stack, g.Exit)
	reach[g.Exit.Idx] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Preds {
			if !reach[e.To.Idx] {
				reach[e.To.Idx] = true
				stack = append(stack, e.To)
			}
		}
	}
	for _, n := range g.Nodes {
		if !reach[n.Idx] && n != g.Exit {
			if n.Stmt != nil {
				return fmt.Errorf("statement S%d (%s) cannot reach function exit (infinite loop?)",
					n.Stmt.ID(), ast.StmtString(n.Stmt))
			}
			return fmt.Errorf("unreachable exit from node %s", n)
		}
	}

	computeIPDom(g)

	// FOW control dependence: for each labeled edge (p -> t, L) where p
	// branches, walk the post-dominator tree from t up to (excluding)
	// IPDom(p), marking every visited node control dependent on (p, L).
	for _, p := range g.Nodes {
		if len(p.Succs) < 2 {
			continue
		}
		for _, e := range p.Succs {
			runner := e.To
			for runner != nil && runner != p.IPDom {
				runner.CD = append(runner.CD, CDep{P: p, Label: e.Label})
				runner = runner.IPDom
			}
		}
	}
	// Deduplicate CD entries (a node can be reached from both branches of
	// p only if it equals IPDom(p), so duplicates are rare but possible
	// through multi-edge merges).
	for _, n := range g.Nodes {
		seen := map[CDep]bool{}
		var uniq []CDep
		for _, cd := range n.CD {
			if !seen[cd] {
				seen[cd] = true
				uniq = append(uniq, cd)
			}
		}
		n.CD = uniq
	}

	// Forward index, statements only.
	for _, n := range g.Nodes {
		if n.Stmt == nil {
			continue
		}
		for _, cd := range n.CD {
			pid := cd.P.StmtID()
			if pid == 0 {
				continue
			}
			m := g.CDKids[pid]
			if m == nil {
				m = map[Label][]int{}
				g.CDKids[pid] = m
			}
			m[cd.Label] = append(m[cd.Label], n.Stmt.ID())
		}
	}
	return nil
}

// computeIPDom runs the Cooper-Harvey-Kennedy iterative dominator
// algorithm on the reverse CFG rooted at Exit.
func computeIPDom(g *Graph) {
	// Reverse postorder on the reverse graph (successors = Preds).
	order := make([]*Node, 0, len(g.Nodes))
	visited := make([]bool, len(g.Nodes))
	var dfs func(n *Node)
	dfs = func(n *Node) {
		visited[n.Idx] = true
		for _, e := range n.Preds {
			if !visited[e.To.Idx] {
				dfs(e.To)
			}
		}
		order = append(order, n) // postorder
	}
	dfs(g.Exit)
	// order is postorder; reverse it for RPO.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpoNum := make([]int, len(g.Nodes))
	for i, n := range order {
		rpoNum[n.Idx] = i
	}

	idom := make([]*Node, len(g.Nodes))
	idom[g.Exit.Idx] = g.Exit

	intersect := func(a, b *Node) *Node {
		for a != b {
			for rpoNum[a.Idx] > rpoNum[b.Idx] {
				a = idom[a.Idx]
			}
			for rpoNum[b.Idx] > rpoNum[a.Idx] {
				b = idom[b.Idx]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, n := range order {
			if n == g.Exit {
				continue
			}
			// predecessors in the reverse graph = CFG successors
			var newIdom *Node
			for _, e := range n.Succs {
				s := e.To
				if idom[s.Idx] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = s
				} else {
					newIdom = intersect(newIdom, s)
				}
			}
			if newIdom != nil && idom[n.Idx] != newIdom {
				idom[n.Idx] = newIdom
				changed = true
			}
		}
	}

	for _, n := range g.Nodes {
		if n == g.Exit {
			n.IPDom = nil
			continue
		}
		n.IPDom = idom[n.Idx]
	}
}

// PostDominates reports whether a post-dominates b in graph g (reflexive).
func PostDominates(a, b *Node) bool {
	for n := b; n != nil; n = n.IPDom {
		if n == a {
			return true
		}
		if n.IPDom == n {
			break
		}
	}
	return false
}
