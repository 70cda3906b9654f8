// Package depgraph is the unified dependence-graph engine: one view of
// the dynamic dependence graph that classic dynamic slicing, relevant
// slicing, confidence analysis and the demand-driven locator (Algorithm
// 2) all parameterize by an edge-kind mask.
//
// The graph has two halves:
//
//   - the trace itself, which already records every explicit dependence
//     observed during execution — per entry, its data edges are its use
//     records with a defining entry, in recording order, and its control
//     edge is its Parent — and is read in place, never copied;
//   - a small mutable overlay holding the analysis-added edges (Potential
//     from relevant slicing, Implicit/StrongImplicit from predicate-
//     switching verification), appended during expansion.
//
// The one forward index (each entry's consumers) is built lazily, for
// confidence analysis: a CSR of the data uses of each entry's value, and
// the overlay edges into each entry as AddEdge appends them.
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

// Graph is a dynamic dependence graph over one trace: the trace's own
// explicit dependences plus an overlay. The zero value is not usable;
// construct with New.
type Graph struct {
	T *trace.Trace

	// Overlay: analysis-added edges out of each node, in insertion order.
	overlay    [][]Edge
	overlayLen int

	// Forward index (consumers). The data consumers of entry d are
	// fwd[fwdStart[d]:fwdStart[d+1]], built on first use; fwdOverlay[d]
	// holds the overlay edges into d in insertion order, with Edge.To
	// holding the edge's *source*.
	fwdStart   []int32
	fwd        []dataUse
	fwdOverlay [][]Edge

	// version counts overlay mutations; analyses snapshot it to detect
	// graph changes they have not accounted for.
	version uint64
}

// dataUse is one data consumer in the forward index: the entry that read
// the value and the symbol it read it through.
type dataUse struct{ entry, sym int32 }

// New returns the graph over a trace. Data and control dependences are
// read from the trace itself; the overlay starts empty.
func New(t *trace.Trace) *Graph { return &Graph{T: t} }

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
// data edges in use-record order, the control edge, then overlay edges
// in insertion order. This replaces the old Deps(i, kinds, buf) API,
// whose caller-supplied buffer invited aliasing bugs (a retained result
// was silently clobbered by the next call); a callback has no buffer to
// misuse and avoids the allocation outright.
func (g *Graph) EachDep(i int, kinds Kind, f func(Edge)) {
	if kinds&Data != 0 {
		for _, u := range g.T.Uses(i) {
			if u.Def >= 0 {
				f(Edge{To: int(u.Def), Kind: Data})
			}
		}
	}
	if p := g.T.At(i).Parent; kinds&Control != 0 && p >= 0 {
		f(Edge{To: int(p), Kind: Control})
	}
	if g.overlay != nil {
		for _, e := range g.overlay[i] {
			if e.Kind&kinds != 0 {
				f(e)
			}
		}
	}
}

// Consumer is one reader of an entry's value: an entry that used it
// (Kind Data, with the symbol it was read through) or the source of an
// analysis-added edge into it (Sym is -1).
type Consumer struct {
	Entry int
	Kind  Kind
	Sym   int
}

// EachConsumer calls f for every consumer of entry i restricted to
// kinds: data uses in entry order, then overlay edges in insertion
// order. Control consumers are not indexed; a Control bit in kinds
// selects nothing.
func (g *Graph) EachConsumer(i int, kinds Kind, f func(Consumer)) {
	if kinds&Data != 0 {
		g.buildForward()
		for _, u := range g.fwd[g.fwdStart[i]:g.fwdStart[i+1]] {
			f(Consumer{Entry: int(u.entry), Kind: Data, Sym: int(u.sym)})
		}
	}
	if g.fwdOverlay != nil {
		for _, e := range g.fwdOverlay[i] {
			if e.Kind&kinds != 0 {
				f(Consumer{Entry: e.To, Kind: e.Kind, Sym: -1})
			}
		}
	}
}

// buildForward builds the data-consumer CSR once: a counting pass sizes
// each entry's row, and a fill pass writes the rows through start[d] as
// a cursor, which leaves start[d] at the row's end; shifting start one
// place right restores it.
func (g *Graph) buildForward() {
	if g.fwdStart != nil {
		return
	}
	t, n := g.T, g.T.Len()
	start := make([]int32, n+1)
	for i := 0; i < n; i++ {
		for _, u := range t.Uses(i) {
			if u.Def >= 0 {
				start[u.Def+1]++
			}
		}
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	fwd := make([]dataUse, start[n])
	for i := 0; i < n; i++ {
		for _, u := range t.Uses(i) {
			if u.Def >= 0 {
				fwd[start[u.Def]] = dataUse{entry: int32(i), sym: u.Sym}
				start[u.Def]++
			}
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
	g.fwdStart, g.fwd = start, fwd
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

// EngineStats reports node and edge counts of both halves; BaseEdges
// counts the explicit dependences the trace records.
func (g *Graph) EngineStats() EngineStats {
	st := EngineStats{Nodes: g.T.Len(), OverlayEdges: g.overlayLen}
	for i := 0; i < st.Nodes; i++ {
		g.EachDep(i, Explicit, func(Edge) { st.BaseEdges++ })
	}
	return st
}
