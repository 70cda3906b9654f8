// Package depgraph is the unified dependence-graph engine: one compact
// representation of the dynamic dependence graph that classic dynamic
// slicing, relevant slicing, confidence analysis and the demand-driven
// locator (Algorithm 2) all parameterize by an edge-kind mask.
//
// The representation has two halves:
//
//   - an immutable CSR (compressed-sparse-row) base holding the explicit
//     dependences observed during execution — per node, its data edges in
//     use-record order followed by its control edge — built once from the
//     trace;
//   - a small mutable overlay holding the analysis-added edges (Potential
//     from relevant slicing, Implicit/StrongImplicit from predicate-
//     switching verification), appended during expansion.
//
// Every edge points from a later entry to an earlier one (from > to), so
// the graph is a DAG ordered by entry index. That invariant is what makes
// a single reverse-order pass exact for confidence propagation, and what
// lets the incremental re-pruning in internal/confidence re-evaluate a
// dirty set in decreasing index order and still produce results identical
// to a full recomputation (see docs/DEPGRAPH.md).
//
// Slice sets are bitsets (Set) whose iteration order is execution order,
// matching the old sort-the-map-keys contract byte for byte.
package depgraph

import "eol/internal/trace"

// Kind classifies dependence edges.
type Kind int

// Edge kinds. Data and Control come from the trace; the others are added
// by analyses.
const (
	Data Kind = 1 << iota
	Control
	Potential      // Definition 1 (relevant slicing)
	Implicit       // Definition 2, verified by predicate switching
	StrongImplicit // Definition 4
	Summary        // interprocedural summary (static SPDG, internal/staticdep)
)

// Explicit selects the dependences observable during execution.
const Explicit = Data | Control

// AnyKind selects every edge kind.
const AnyKind = Data | Control | Potential | Implicit | StrongImplicit | Summary

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Data:
		return "dd"
	case Control:
		return "cd"
	case Potential:
		return "pd"
	case Implicit:
		return "id"
	case StrongImplicit:
		return "sid"
	case Summary:
		return "sum"
	}
	return "?"
}

// Edge is a dependence from a later entry to an earlier one it depends on.
type Edge struct {
	To   int
	Kind Kind
}

// Graph is a dynamic dependence graph over one trace: CSR base plus
// overlay. The zero value is not usable; construct with New.
type Graph struct {
	T *trace.Trace

	// CSR base: edges of node i are base[rowStart[i]:rowStart[i+1]],
	// data edges in use-record order, then the control edge.
	rowStart []int32
	base     []Edge

	// Overlay: analysis-added edges out of each node, in insertion order.
	overlay    [][]Edge
	overlayLen int

	// Forward adjacency (consumer lists), built lazily for the immutable
	// base, maintained incrementally for the overlay. Edge.To holds the
	// *consumer* index here.
	fwdBase    [][]Edge
	fwdOverlay [][]Edge

	// version counts overlay mutations; analyses snapshot it to detect
	// graph changes they have not accounted for.
	version uint64
}

// New builds the CSR base from a trace. Data and control dependences come
// from the trace itself; the overlay starts empty.
func New(t *trace.Trace) *Graph {
	n := t.Len()
	g := &Graph{T: t, rowStart: make([]int32, n+1)}
	total := 0
	for i := 0; i < n; i++ {
		for _, u := range t.Uses(i) {
			if u.Def >= 0 {
				total++
			}
		}
		if t.At(i).Parent >= 0 {
			total++
		}
		g.rowStart[i+1] = int32(total)
	}
	g.base = make([]Edge, 0, total)
	for i := 0; i < n; i++ {
		for _, u := range t.Uses(i) {
			if u.Def >= 0 {
				g.base = append(g.base, Edge{To: int(u.Def), Kind: Data})
			}
		}
		if p := t.At(i).Parent; p >= 0 {
			g.base = append(g.base, Edge{To: int(p), Kind: Control})
		}
	}
	return g
}

// Version returns the overlay mutation counter.
func (g *Graph) Version() uint64 { return g.version }

// AddEdge records an analysis-added dependence from entry `from` to entry
// `to` of the given kind and reports whether it was new (duplicates are
// ignored).
func (g *Graph) AddEdge(from, to int, kind Kind) bool {
	if g.overlay == nil {
		g.overlay = make([][]Edge, g.T.Len())
	}
	for _, e := range g.overlay[from] {
		if e.To == to && e.Kind == kind {
			return false
		}
	}
	g.overlay[from] = append(g.overlay[from], Edge{To: to, Kind: kind})
	g.overlayLen++
	if g.fwdOverlay == nil {
		g.fwdOverlay = make([][]Edge, g.T.Len())
	}
	g.fwdOverlay[to] = append(g.fwdOverlay[to], Edge{To: from, Kind: kind})
	g.version++
	return true
}

// ExtraEdges returns the analysis-added edges out of entry i. The slice
// aliases the overlay; callers must not modify it.
func (g *Graph) ExtraEdges(i int) []Edge {
	if g.overlay == nil {
		return nil
	}
	return g.overlay[i]
}

// NumExtraEdges counts all analysis-added edges of the given kinds.
func (g *Graph) NumExtraEdges(kinds Kind) int {
	n := 0
	for _, es := range g.overlay {
		for _, e := range es {
			if e.Kind&kinds != 0 {
				n++
			}
		}
	}
	return n
}

// EachDep calls f for every dependence of entry i restricted to kinds:
// base data edges in use-record order, the control edge, then overlay
// edges in insertion order. This replaces the old Deps(i, kinds, buf)
// API, whose caller-supplied buffer invited aliasing bugs (a retained
// result was silently clobbered by the next call); a callback has no
// buffer to misuse and avoids the allocation outright.
func (g *Graph) EachDep(i int, kinds Kind, f func(Edge)) {
	if kinds&Explicit != 0 {
		for _, e := range g.base[g.rowStart[i]:g.rowStart[i+1]] {
			if e.Kind&kinds != 0 {
				f(e)
			}
		}
	}
	if g.overlay != nil {
		for _, e := range g.overlay[i] {
			if e.Kind&kinds != 0 {
				f(e)
			}
		}
	}
}

// BackwardSlice computes the transitive closure of the seed entries over
// the given edge kinds. The result includes the seeds.
func (g *Graph) BackwardSlice(kinds Kind, seeds ...int) *Set {
	s := NewSet(g.T.Len())
	g.Extend(s, kinds, seeds...)
	return s
}

// Extend grows an existing closure set by the backward cones of the seeds
// and returns the newly added entries (in no particular order). Entries
// already in the set act as traversal barriers, which is what makes
// incremental slice growth equivalent to recomputing from scratch: the
// set is only ever a union of backward closures.
func (g *Graph) Extend(s *Set, kinds Kind, seeds ...int) []int {
	var added []int
	var work []int
	for _, seed := range seeds {
		if s.Add(seed) {
			added = append(added, seed)
			work = append(work, seed)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		g.EachDep(n, kinds, func(e Edge) {
			if s.Add(e.To) {
				added = append(added, e.To)
				work = append(work, e.To)
			}
		})
	}
	return added
}

// ensureForward builds the base consumer lists (reverse adjacency) once.
func (g *Graph) ensureForward() {
	if g.fwdBase != nil {
		return
	}
	g.fwdBase = make([][]Edge, g.T.Len())
	for i := 0; i < g.T.Len(); i++ {
		for _, e := range g.base[g.rowStart[i]:g.rowStart[i+1]] {
			g.fwdBase[e.To] = append(g.fwdBase[e.To], Edge{To: i, Kind: e.Kind})
		}
	}
}

// ForwardReach computes the set of entries reachable forward from the
// seeds, i.e. entries whose backward closure would include a seed.
func (g *Graph) ForwardReach(kinds Kind, seeds ...int) *Set {
	g.ensureForward()
	reach := NewSet(g.T.Len())
	var work []int
	for _, s := range seeds {
		if reach.Add(s) {
			work = append(work, s)
		}
	}
	visit := func(e Edge, work *[]int) {
		if e.Kind&kinds != 0 && reach.Add(e.To) {
			*work = append(*work, e.To)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range g.fwdBase[n] {
			visit(e, &work)
		}
		if g.fwdOverlay != nil {
			for _, e := range g.fwdOverlay[n] {
				visit(e, &work)
			}
		}
	}
	return reach
}

// Distances computes, for every entry in the backward closure of seed,
// its minimal dependence distance (edge count) to the seed; unreached
// entries hold -1. Used for ranking fault candidates. A negative seed
// yields nil.
func (g *Graph) Distances(kinds Kind, seed int) []int32 {
	if seed < 0 {
		return nil
	}
	dist := make([]int32, g.T.Len())
	for i := range dist {
		dist[i] = -1
	}
	dist[seed] = 0
	queue := []int{seed}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		g.EachDep(n, kinds, func(e Edge) {
			if dist[e.To] < 0 {
				dist[e.To] = dist[n] + 1
				queue = append(queue, e.To)
			}
		})
	}
	return dist
}

// Relax lowers BFS distances after the edge (from, to) was added:
// decrease-only propagation from `to` through the current graph. Distances
// are unique, so relaxing each inserted edge in any order over the
// already-updated graph reproduces exactly what a fresh Distances pass
// would compute.
func (g *Graph) Relax(dist []int32, kinds Kind, from, to int) {
	if from < 0 || to < 0 || dist == nil || dist[from] < 0 {
		return
	}
	nd := dist[from] + 1
	if dist[to] >= 0 && dist[to] <= nd {
		return
	}
	dist[to] = nd
	queue := []int{to}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		dn := dist[n]
		g.EachDep(n, kinds, func(e Edge) {
			if dist[e.To] < 0 || dist[e.To] > dn+1 {
				dist[e.To] = dn + 1
				queue = append(queue, e.To)
			}
		})
	}
}

// TraceBackward computes a backward closure over a trace's explicit
// dependences without building a Graph: the one-shot path used in
// verification inner loops (one closure per switched trace), where CSR
// construction would cost more than the walk itself. Only Data and
// Control bits of kinds are honored — a bare trace has no overlay.
func TraceBackward(t *trace.Trace, kinds Kind, seeds ...int) *Set {
	s := NewSet(t.Len())
	var work []int
	for _, seed := range seeds {
		if s.Add(seed) {
			work = append(work, seed)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if kinds&Data != 0 {
			for _, u := range t.Uses(n) {
				if u.Def >= 0 && s.Add(int(u.Def)) {
					work = append(work, int(u.Def))
				}
			}
		}
		if p := int(t.At(n).Parent); kinds&Control != 0 && p >= 0 && s.Add(p) {
			work = append(work, p)
		}
	}
	return s
}

// SliceStats summarizes a slice in the paper's "static/dynamic" terms:
// the number of unique source statements and the number of statement
// instances.
type SliceStats struct {
	Static  int
	Dynamic int
}

// Stats computes slice statistics for a set of trace entries.
func (g *Graph) Stats(slice *Set) SliceStats {
	stmts := map[int]bool{}
	slice.ForEach(func(i int) { stmts[g.T.At(i).Inst.Stmt] = true })
	return SliceStats{Static: len(stmts), Dynamic: slice.Len()}
}

// ContainsStmt reports whether any instance of statement id is in the
// slice.
func (g *Graph) ContainsStmt(slice *Set, stmt int) bool {
	found := false
	slice.ForEach(func(i int) {
		if !found && g.T.At(i).Inst.Stmt == stmt {
			found = true
		}
	})
	return found
}

// EngineStats summarizes the representation for diagnostics (cmd/slicer
// -engine).
type EngineStats struct {
	Nodes        int
	BaseEdges    int
	OverlayEdges int
}

// EngineStats reports node and edge counts of both halves.
func (g *Graph) EngineStats() EngineStats {
	return EngineStats{Nodes: g.T.Len(), BaseEdges: len(g.base), OverlayEdges: g.overlayLen}
}
