// Package confidence implements confidence analysis — the pruning and
// ranking substrate of the demand-driven locator, after "Pruning dynamic
// slices with confidence" (Zhang et al., PLDI 2006) as used by the
// PLDI 2007 paper.
//
// Each statement instance in the failing run receives a confidence value
// in [0,1]: the likelihood that it produced a *correct* value, inferred
// from the outputs the user has classified.
//
//   - Confidence 1 ("pinned") is established exactly: the values feeding
//     correct outputs are correct, and correctness propagates backward
//     through value mappings that are one-to-one in the operand (copy,
//     ±, ^, * by nonzero literal, unary -/~) provided the remaining
//     operands are themselves pinned. Instances the user marks benign are
//     pinned directly.
//   - Confidence 0 means no evidence: the instance influences only the
//     wrong output (Fig. 4's statement 30).
//   - Intermediate confidences follow the paper's range formula
//     C = 1 − log|alt| / log|range|, with |range| taken from value
//     profiles over passing test runs and |alt| estimated from the
//     injectivity class of the consuming operation (Fig. 4's statement
//     10: a many-to-one consumer like %k leaves range/k alternatives).
//
// Confidence propagates only along explicit and *verified implicit*
// dependence edges — never along unverified potential edges, which is
// precisely why the paper rejects the "relevant slicing + confidence"
// shortcut (§3.2): a false potential edge would launder confidence onto
// the root cause and sanitize it.
//
// # Incremental re-propagation
//
// Algorithm 2 calls Compute after every expansion wave and every benign
// verdict, but each such step changes the graph by a handful of overlay
// edges or pins one instance. When Incremental is set, edge additions
// routed through AddEdges and pins through Pin are queued as deltas, and
// the next Compute touches only the invalidated cone: the slice/closure
// sets grow by the new edges' backward cones, distances relax
// decrease-only, the pinned fixpoint continues from the new pins (it is
// monotone, so continuation and from-scratch agree), and confidences
// re-evaluate along a worklist in decreasing entry order.
// Because every dependence edge points from a later entry to an earlier
// one, consumers always finalize before their producers, and the delta
// pass reproduces the full pass bit for bit — the same float operations
// on the same operands (see docs/DEPGRAPH.md for the argument). Any state
// the delta path cannot account for — Kinds or Naive changed, the graph
// mutated behind the analyzer's back — falls back to a full pass.
//
// # Ranked selection
//
// PruneSlicing asks the user about the most suspicious candidate not yet
// judged, after every answer. Next serves that question from a lazily
// invalidated heap instead of re-sorting the slice (see Next), so an
// answer costs O(changed confidences · log n) rather than
// O(slice · log slice).
package confidence

import (
	"math"
	"sort"

	"eol/internal/depgraph"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/lang/token"
	"eol/internal/trace"
)

// Profile holds value profiles: the set of values each statement was
// observed to produce across (passing) test executions. Range sizes feed
// the C = 1 − log|alt|/log|range| estimate.
type Profile struct {
	values map[int]map[int64]bool
}

// NewProfile creates an empty profile.
func NewProfile() *Profile { return &Profile{values: map[int]map[int64]bool{}} }

// AddTrace records the produced value of every defining instance.
func (p *Profile) AddTrace(t *trace.Trace) {
	for i := 0; i < t.Len(); i++ {
		e := t.At(i)
		if len(e.Defs) == 0 {
			continue
		}
		m := p.values[e.Inst.Stmt]
		if m == nil {
			m = map[int64]bool{}
			p.values[e.Inst.Stmt] = m
		}
		m[e.Value] = true
	}
}

// Values returns the observed values for stmt (unspecified order).
func (p *Profile) Values(stmt int) []int64 {
	if p == nil {
		return nil
	}
	var vs []int64
	for v := range p.values[stmt] {
		vs = append(vs, v)
	}
	return vs
}

// Range returns the observed value-range size for stmt, at least 2 (a
// singleton or unobserved statement still has an unknown domain).
func (p *Profile) Range(stmt int) int {
	if p == nil {
		return 2
	}
	n := len(p.values[stmt])
	if n < 2 {
		return 2
	}
	return n
}

// consumer is one reader of an entry's value: a data use or the source of
// an analysis-added edge pointing at the entry.
type consumer struct {
	entry int
	kind  depgraph.Kind
	sym   int
}

// Arc is one analysis-added dependence edge routed through the analyzer,
// so an incremental Compute can re-propagate only its cone.
type Arc struct {
	From, To int
	Kind     depgraph.Kind
}

// Analyzer computes confidences for one failing execution.
type Analyzer struct {
	C       *interp.Compiled
	G       *depgraph.Graph
	Profile *Profile

	// CorrectOuts are output events the user classified as correct;
	// WrongOut is the first wrong output.
	CorrectOuts []trace.Output
	WrongOut    trace.Output

	// Kinds selects the dependence edges confidence flows along. It must
	// include only explicit and verified-implicit kinds — unless Naive is
	// set for the ablation below.
	Kinds depgraph.Kind

	// Naive enables the "relevant slicing + confidence" shortcut the
	// paper warns against (§3.2): confidence-1 propagates across
	// *unverified potential* edges, and a confirmed predicate outcome
	// pins its operands. Used only by the ablation harness to demonstrate
	// that this sanitizes root causes. Naive mode always recomputes fully.
	Naive bool

	// Incremental enables delta re-propagation: Compute after the first
	// touches only the cone invalidated by queued AddEdges/Pin deltas.
	// Results are identical to a full recomputation either way; only cost
	// differs (RepropStats).
	Incremental bool

	benign map[int]bool
	judged *depgraph.Set // entries answered "corrupted" (Judge); only grows

	// Results of the last Compute.
	conf   []float64
	slice  *depgraph.Set
	pinned []bool
	dist   []int32
	cc     *depgraph.Set // union closure of the correct outputs

	consumers [][]consumer

	computed   bool
	compKinds  depgraph.Kind // Kinds value the cached state was computed under
	accVersion uint64        // graph version the cached state accounts for

	pendingArcs []Arc
	pendingPins []int

	// rank is the candidate heap behind Next; rankStale asks Next to
	// rebuild it from the slice.
	rank      binHeap[Candidate]
	rankStale bool

	// Worklist storage computeDelta reuses from pass to pass.
	dirty *depgraph.Set
	work  binHeap[int]

	// Re-propagation accounting (RepropStats): Compute passes after the
	// first, and confidence entries re-evaluated by them.
	passes int
	reeval int64
}

// New prepares an analyzer over graph g with the classified outputs.
func New(c *interp.Compiled, g *depgraph.Graph, prof *Profile, correct []trace.Output, wrong trace.Output) *Analyzer {
	return &Analyzer{
		C: c, G: g, Profile: prof,
		CorrectOuts: correct, WrongOut: wrong,
		Kinds:  depgraph.Explicit | depgraph.Implicit | depgraph.StrongImplicit,
		benign: map[int]bool{},
		judged: depgraph.NewSet(g.T.Len()),
		rank:   binHeap[Candidate]{before: ranksBefore},
		dirty:  depgraph.NewSet(g.T.Len()),
		work:   binHeap[int]{before: func(x, y int) bool { return x > y }},
	}
}

// AddEdges records analysis-added dependence edges in the graph and
// queues them as deltas for the next Compute. Duplicate edges are
// ignored. This is the edge-addition entry point Algorithm 2's expansion
// must use for incremental re-pruning to see the change; edges added
// directly on the graph still work but force the next Compute to fall
// back to a full pass.
func (a *Analyzer) AddEdges(arcs ...Arc) {
	for _, arc := range arcs {
		if a.G.AddEdge(arc.From, arc.To, arc.Kind) {
			a.pendingArcs = append(a.pendingArcs, arc)
			a.accVersion = a.G.Version()
		}
	}
}

// Pin marks entry as known-correct (the user inspected its program state
// and found it benign): confidence 1 after the next Compute.
func (a *Analyzer) Pin(entry int) {
	if !a.benign[entry] {
		a.benign[entry] = true
		a.pendingPins = append(a.pendingPins, entry)
	}
}

// Judge records the user's "corrupted" answer for entry: Next passes it
// over from now on. Judging changes no confidence and leaves
// FaultCandidates as it is.
func (a *Analyzer) Judge(entry int) { a.judged.Add(entry) }

// Judged reports whether entry was judged corrupted.
func (a *Analyzer) Judged(entry int) bool { return a.judged.Has(entry) }

// RepropStats reports the re-propagation cost of Compute calls after the
// first: how many such passes ran and how many confidence entries they
// re-evaluated in total. A delta pass counts its dirty set; a full pass
// counts the whole trace — so the ratio reeval/(passes·len(trace)) is the
// run's mean dirty fraction, 1.0 when Incremental is off.
func (a *Analyzer) RepropStats() (passes int, reeval int64) { return a.passes, a.reeval }

// Compute (re)computes confidences over the current graph and benign set.
// With Incremental set and all changes routed through AddEdges/Pin since
// the previous pass, only the invalidated cone is re-evaluated.
func (a *Analyzer) Compute() {
	if a.computed && a.Incremental && !a.Naive &&
		a.Kinds == a.compKinds && a.G.Version() == a.accVersion {
		a.computeDelta()
		return
	}
	a.computeFull()
}

// computeFull recomputes every analysis artifact from scratch.
func (a *Analyzer) computeFull() {
	t := a.G.T
	n := t.Len()
	a.slice = a.G.BackwardSlice(a.Kinds, a.WrongOut.Entry)
	a.dist = a.G.Distances(a.Kinds, a.WrongOut.Entry)

	// Entries influencing at least one correct output.
	a.cc = depgraph.NewSet(n)
	for _, o := range a.CorrectOuts {
		a.G.Extend(a.cc, a.Kinds, o.Entry)
	}

	// Exact pass: pinned set.
	a.pinned = a.computePinned()

	// Fractional pass, in reverse execution order so consumers are done
	// before their producers.
	a.buildConsumers()
	a.conf = make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		a.conf[i] = a.confOf(i)
	}

	if a.computed {
		a.passes++
		a.reeval += int64(n)
	}
	a.computed = true
	a.compKinds = a.Kinds
	a.accVersion = a.G.Version()
	a.pendingArcs = a.pendingArcs[:0]
	a.pendingPins = a.pendingPins[:0]
	a.rankStale = true
}

// buildConsumers assembles the forward consumer lists: data uses from the
// trace plus analysis-added edges of the non-explicit kinds in Kinds.
func (a *Analyzer) buildConsumers() {
	t := a.G.T
	n := t.Len()
	a.consumers = make([][]consumer, n)
	for i := 0; i < n; i++ {
		e := t.At(i)
		for _, u := range e.Uses {
			if u.Def >= 0 {
				a.consumers[u.Def] = append(a.consumers[u.Def],
					consumer{entry: i, kind: depgraph.Data, sym: u.Sym})
			}
		}
		from := i
		a.G.EachDep(i, a.Kinds&^depgraph.Explicit, func(ed depgraph.Edge) {
			a.consumers[ed.To] = append(a.consumers[ed.To], consumer{entry: from, kind: ed.Kind})
		})
	}
}

// confOf evaluates the confidence formula for entry i from the current
// pinned/closure/consumer state. Consumers at or below i are skipped —
// the reverse-order full pass never saw them (their confidence was not
// yet computed), and the delta pass must reproduce the full pass exactly.
func (a *Analyzer) confOf(i int) float64 {
	if a.pinned[i] {
		return 1
	}
	if !a.cc.Has(i) {
		return 0 // no evidence of correctness (Fig. 4's C=0 case)
	}
	t := a.G.T
	best := 0.0
	r := a.Profile.Range(t.At(i).Inst.Stmt)
	for _, c := range a.consumers[i] {
		if c.entry <= i {
			continue
		}
		cc := a.conf[c.entry]
		var phi float64
		if c.kind == depgraph.Data {
			cls := classifyUse(a.C, t.At(c.entry).Inst.Stmt, c.sym)
			phi = cls.factor(r)
		} else {
			// verified implicit edge: the consumer's branch outcome
			// constrains the producer like a comparison would
			phi = useClass{kind: classCompare}.factor(r)
		}
		if v := cc * phi; v > best {
			best = v
		}
	}
	if best > 1 {
		best = 1
	}
	if best >= 1 {
		best = 0.999 // exact 1 is reserved for the pinned set
	}
	return best
}

// computePinned runs the exact one-to-one fixpoint from scratch.
func (a *Analyzer) computePinned() []bool {
	t := a.G.T
	n := t.Len()
	pinned := make([]bool, n)
	for b := range a.benign {
		if b >= 0 && b < n {
			pinned[b] = true
		}
	}
	// Seeds: definitions directly feeding a correct output. Print
	// statements are injective in each printed value, so the def of each
	// use of a correct print entry whose value was observed correct is
	// pinned. A print entry that produced the wrong output is never a
	// seed source for its wrong argument.
	wrongEntry := a.WrongOut.Entry
	for _, o := range a.CorrectOuts {
		if o.Entry == wrongEntry {
			continue // the failing print instance is never evidence
		}
		// The print instance itself was observed correct.
		pinned[o.Entry] = true
		// print arguments may be arbitrary expressions; only pin defs
		// when the argument is a direct variable read, i.e. the def's
		// produced value equals the printed value.
		for _, u := range t.At(o.Entry).Uses {
			if u.Def >= 0 && t.At(u.Def).Value == o.Value {
				pinned[u.Def] = true
			}
		}
	}

	// Fixpoint: pinned consumer + injective-in-operand + other operands
	// pinned => operand's def pinned. In Naive mode, pinned entries also
	// pin across unverified potential edges (the §3.2 pitfall). The
	// closure is monotone, so the scan order does not affect the result.
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if !pinned[i] {
				continue
			}
			if a.Naive {
				a.G.EachDep(i, depgraph.Potential, func(ed depgraph.Edge) {
					if !pinned[ed.To] {
						pinned[ed.To] = true
						changed = true
					}
				})
			}
			a.tryPinUses(i, pinned, func(int) { changed = true })
		}
	}
	return pinned
}

// tryPinUses applies the one-to-one rule at pinned consumer i: an operand
// whose mapping to i's result is injective, with every other operand
// pinned, has its definition pinned. onPin is invoked for each newly
// pinned definition.
func (a *Analyzer) tryPinUses(i int, pinned []bool, onPin func(def int)) {
	e := a.G.T.At(i)
	if len(e.Defs) == 0 && len(e.Uses) == 0 {
		return
	}
	for _, u := range e.Uses {
		if u.Def < 0 || pinned[u.Def] {
			continue
		}
		cls := classifyUse(a.C, e.Inst.Stmt, u.Sym)
		if a.Naive && cls.kind == classCompare {
			// A "confirmed" predicate outcome is naively taken to
			// confirm its operand.
			cls = useClass{kind: classInjective}
		}
		if cls.kind != classInjective {
			continue
		}
		othersPinned := true
		for _, v := range e.Uses {
			if v.Sym != u.Sym && v.Def >= 0 && !pinned[v.Def] {
				othersPinned = false
				break
			}
		}
		if othersPinned {
			pinned[u.Def] = true
			onPin(u.Def)
		}
	}
}

// computeDelta re-propagates only the cone invalidated by the queued
// deltas. Equivalence with computeFull rests on three facts: the closure
// sets and distances are unique (so incremental growth/relaxation lands
// on the same sets), the pinned fixpoint is monotone (so continuation
// from the new pins reaches the same least fixpoint), and every edge
// points from a later entry to an earlier one (so re-evaluating dirty
// confidences in decreasing entry order sees exactly the consumer values
// a full reverse-order pass would see).
func (a *Analyzer) computeDelta() {
	t := a.G.T
	n := t.Len()
	extraKinds := a.Kinds &^ depgraph.Explicit

	// Arcs move slice membership and distances, so the candidate heap is
	// rebuilt; a pass with only pins changes confidences alone, and the
	// loop below pushes a fresh heap item for each that changed.
	if len(a.pendingArcs) > 0 {
		a.rankStale = true
	}

	dirty, work := a.dirty, &a.work
	dirty.Reset()
	push := func(i int) {
		if i >= 0 && i < n && dirty.Add(i) {
			work.push(i)
		}
	}

	// Structure deltas: new consumers, slice/closure growth, distance
	// relaxation. The closure growth loops to a fixpoint because one
	// arc's extension can pull another arc's source into the set; the
	// traversal itself already runs over the fully-updated graph.
	for _, arc := range a.pendingArcs {
		if arc.Kind&extraKinds != 0 {
			a.consumers[arc.To] = append(a.consumers[arc.To],
				consumer{entry: arc.From, kind: arc.Kind})
			push(arc.To)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, arc := range a.pendingArcs {
			if arc.Kind&a.Kinds == 0 {
				continue
			}
			if a.slice.Has(arc.From) && !a.slice.Has(arc.To) {
				a.G.Extend(a.slice, a.Kinds, arc.To)
				changed = true
			}
			if a.cc.Has(arc.From) && !a.cc.Has(arc.To) {
				for _, e := range a.G.Extend(a.cc, a.Kinds, arc.To) {
					push(e)
				}
				changed = true
			}
			a.G.Relax(a.dist, a.Kinds, arc.From, arc.To)
		}
	}

	// Pinned fixpoint continuation: examine each newly pinned entry as a
	// consumer, and re-examine its already-pinned data consumers (the new
	// pin may be the "other operand" that unlocks them).
	var pinWork []int
	onPin := func(p int) {
		pinWork = append(pinWork, p)
		push(p)
	}
	for _, p := range a.pendingPins {
		if p >= 0 && p < n && !a.pinned[p] {
			a.pinned[p] = true
			onPin(p)
		}
	}
	for len(pinWork) > 0 {
		d := pinWork[len(pinWork)-1]
		pinWork = pinWork[:len(pinWork)-1]
		a.tryPinUses(d, a.pinned, onPin)
		for _, c := range a.consumers[d] {
			if c.kind == depgraph.Data && a.pinned[c.entry] {
				a.tryPinUses(c.entry, a.pinned, onPin)
			}
		}
	}

	// Confidence re-propagation in decreasing entry order: a changed
	// value dirties the entry's producers, which sit strictly below it.
	processed := 0
	for work.len() > 0 {
		i := work.pop()
		processed++
		nv := a.confOf(i)
		if nv != a.conf[i] {
			a.conf[i] = nv
			if c, ok := a.candidate(i); ok && !a.rankStale && a.slice.Has(i) {
				a.rank.push(c)
			}
			for _, u := range t.At(i).Uses {
				if u.Def >= 0 {
					push(u.Def)
				}
			}
			a.G.EachDep(i, extraKinds, func(ed depgraph.Edge) { push(ed.To) })
		}
	}

	a.passes++
	a.reeval += int64(processed)
	a.accVersion = a.G.Version()
	a.pendingArcs = a.pendingArcs[:0]
	a.pendingPins = a.pendingPins[:0]
}

// Confidence returns the confidence of entry (after Compute).
func (a *Analyzer) Confidence(entry int) float64 {
	if entry < 0 || entry >= len(a.conf) {
		return 0
	}
	return a.conf[entry]
}

// Slice returns the current slice of the wrong output (after Compute).
func (a *Analyzer) Slice() *depgraph.Set { return a.slice }

// Candidate is a ranked fault candidate.
type Candidate struct {
	Entry int
	Conf  float64
	Dist  int
}

// ranksBefore is the candidate order: lowest confidence, then smallest
// dependence distance to the failure, then latest execution. Entries are
// distinct, so it is a strict total order on candidates, and any
// procedure that selects by it (sort, heap, scan) picks the same one.
func ranksBefore(x, y Candidate) bool {
	if x.Conf != y.Conf {
		return x.Conf < y.Conf
	}
	if x.Dist != y.Dist {
		return x.Dist < y.Dist
	}
	return x.Entry > y.Entry
}

// candidate returns entry e's rank key as of the last Compute; ok is false
// when e is pinned. Slice membership is the caller's to check.
func (a *Analyzer) candidate(e int) (c Candidate, ok bool) {
	if a.conf[e] >= 1 {
		return Candidate{}, false
	}
	d := math.MaxInt32
	if dd := a.dist[e]; dd >= 0 {
		d = int(dd)
	}
	return Candidate{Entry: e, Conf: a.conf[e], Dist: d}, true
}

// FaultCandidates returns the pruned slice as a ranked list: entries of
// the wrong output's slice with confidence < 1, most suspicious first
// (ranksBefore).
func (a *Analyzer) FaultCandidates() []Candidate {
	var res []Candidate
	a.slice.ForEach(func(e int) {
		if c, ok := a.candidate(e); ok {
			res = append(res, c)
		}
	})
	sort.Slice(res, func(i, j int) bool { return ranksBefore(res[i], res[j]) })
	return res
}

// NumCandidates returns len(FaultCandidates()) without building the list.
func (a *Analyzer) NumCandidates() int {
	n := 0
	a.slice.ForEach(func(e int) {
		if a.conf[e] < 1 {
			n++
		}
	})
	return n
}

// FirstCandidate returns the first candidate, in FaultCandidates order,
// whose entry keep accepts, and false when there is none.
func (a *Analyzer) FirstCandidate(keep func(entry int) bool) (Candidate, bool) {
	var best Candidate
	found := false
	a.slice.ForEach(func(e int) {
		if c, ok := a.candidate(e); ok && (!found || ranksBefore(c, best)) && keep(e) {
			best, found = c, true
		}
	})
	return best, found
}

// Next returns the first candidate, in FaultCandidates order, that has not
// been judged, and false when every candidate has been. Like
// FaultCandidates it reflects the last Compute.
//
// The candidates sit in a lazily invalidated min-heap under ranksBefore.
// Invariant: every current candidate that is not judged has an item in the
// heap carrying its current key. Items go stale when their entry's
// confidence changes or it is pinned (its key no longer matches) or when
// it is judged; Next drops such items as they reach the top. Judged
// entries only ever accumulate, so a dropped item is never needed again.
// A full pass, or a delta pass that applied arcs, marks the heap for a
// rebuild from the slice; a delta pass with only pins pushes one item per
// changed confidence (computeDelta). Because ranksBefore is a strict total
// order, the top valid item is exactly FaultCandidates' first unjudged
// entry.
func (a *Analyzer) Next() (Candidate, bool) {
	if a.rankStale {
		a.rank.s = a.rank.s[:0]
		a.slice.ForEach(func(e int) {
			if c, ok := a.candidate(e); ok && !a.judged.Has(e) {
				a.rank.s = append(a.rank.s, c)
			}
		})
		a.rank.heapify()
		a.rankStale = false
	}
	for a.rank.len() > 0 {
		top := a.rank.s[0]
		if c, ok := a.candidate(top.Entry); ok && c == top && !a.judged.Has(top.Entry) {
			return top, true
		}
		a.rank.pop()
	}
	return Candidate{}, false
}

// binHeap is a binary heap whose top is an element no other is before:
// the dirty worklist drains entries in decreasing order with it, and Next
// ranks candidates with it.
type binHeap[T any] struct {
	s      []T
	before func(x, y T) bool
}

func (h *binHeap[T]) len() int { return len(h.s) }

func (h *binHeap[T]) push(x T) {
	h.s = append(h.s, x)
	c := len(h.s) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !h.before(h.s[c], h.s[p]) {
			break
		}
		h.s[p], h.s[c] = h.s[c], h.s[p]
		c = p
	}
}

func (h *binHeap[T]) pop() T {
	top := h.s[0]
	last := len(h.s) - 1
	h.s[0] = h.s[last]
	h.s = h.s[:last]
	h.down(0)
	return top
}

// heapify establishes the heap order over elements appended to h.s.
func (h *binHeap[T]) heapify() {
	for i := len(h.s)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *binHeap[T]) down(p int) {
	for {
		c := 2*p + 1
		if c >= len(h.s) {
			return
		}
		if c+1 < len(h.s) && h.before(h.s[c+1], h.s[c]) {
			c++
		}
		if !h.before(h.s[c], h.s[p]) {
			return
		}
		h.s[p], h.s[c] = h.s[c], h.s[p]
		p = c
	}
}

// ---------------------------------------------------------------------------
// Injectivity classification

type classKind int

const (
	classInjective classKind = iota
	classMod                 // v % k: k residue classes survive
	classDiv                 // v / k: result pins v to a window of k values
	classMask                // v & m: popcount(m) bits survive
	classCompare             // relational/boolean outcome: one bit
	classOpaque              // calls, multiple occurrences, unsupported ops
)

type useClass struct {
	kind classKind
	k    int64 // parameter for Mod/Div/Mask
}

// factor converts the class into the paper's confidence formula
// C = 1 − log|alt|/log|range| for a consumer with a pinned result.
func (c useClass) factor(rng int) float64 {
	r := float64(rng)
	logr := math.Log(r)
	frac := func(alt float64) float64 {
		if alt <= 1 {
			return 1
		}
		if alt >= r {
			return 0
		}
		return 1 - math.Log(alt)/logr
	}
	switch c.kind {
	case classInjective:
		// Injective but the exact pass could not pin it (other operands
		// unpinned): most of the constraint survives.
		return frac(1.5)
	case classMod:
		k := float64(c.k)
		if k < 2 {
			return 0
		}
		return frac(r / k)
	case classDiv:
		return frac(float64(c.k))
	case classMask:
		bits := float64(popcount(uint64(c.k)))
		return frac(r / math.Max(2, math.Pow(2, bits)))
	case classCompare:
		return frac(r / 2)
	}
	return 0
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// classifyUse determines how statement stmt's produced value constrains
// the value it read from symbol sym: the injectivity class of the value
// mapping from that operand to the statement's result.
func classifyUse(c *interp.Compiled, stmt, sym int) useClass {
	s := c.Info.Stmt(stmt)
	if s == nil || sym < 0 {
		return useClass{kind: classOpaque}
	}
	var expr ast.Expr
	switch n := s.(type) {
	case *ast.AssignStmt:
		if n.Op != token.ASSIGN {
			// compound assignment: result mixes old value and RHS; both
			// operands relate injectively for +=/-=/^=.
			switch n.Op.AssignOp() {
			case token.ADD, token.SUB, token.XOR:
				return useClass{kind: classInjective}
			default:
				return useClass{kind: classOpaque}
			}
		}
		expr = n.RHS
	case *ast.VarDeclStmt:
		expr = n.Init
	case *ast.ReturnStmt:
		expr = n.Value
	case *ast.PrintStmt:
		return useClass{kind: classInjective} // printed values are observed directly
	case *ast.IfStmt, *ast.WhileStmt, *ast.ForStmt:
		return useClass{kind: classCompare} // only the outcome bit is known
	default:
		return useClass{kind: classOpaque}
	}
	if expr == nil {
		return useClass{kind: classOpaque}
	}
	// Also account for index reads on the LHS of array assignments: a
	// value used only as an index is opaque from the result's viewpoint.
	occ := countOccurrences(c, expr, sym)
	if occ == 0 {
		return useClass{kind: classOpaque} // used elsewhere in the stmt (index, call arg)
	}
	if occ > 1 {
		return useClass{kind: classOpaque}
	}
	cls, ok := classifyExpr(c, expr, sym)
	if !ok {
		return useClass{kind: classOpaque}
	}
	return cls
}

// countOccurrences counts reads of sym inside e (variable or array base).
func countOccurrences(c *interp.Compiled, e ast.Expr, sym int) int {
	n := 0
	var walk func(x ast.Expr)
	walk = func(x ast.Expr) {
		switch v := x.(type) {
		case nil:
		case *ast.Ident:
			if s := c.Info.Uses[v]; s != nil && s.ID == sym {
				n++
			}
		case *ast.IndexExpr:
			if s := c.Info.Uses[v.X]; s != nil && s.ID == sym {
				n++
			}
			walk(v.Index)
		case *ast.UnaryExpr:
			walk(v.X)
		case *ast.BinaryExpr:
			walk(v.X)
			walk(v.Y)
		case *ast.CallExpr:
			for _, a := range v.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return n
}

// classifyExpr computes the injectivity class of e in sym, assuming sym
// occurs exactly once. Returns ok == false if sym does not occur in e.
func classifyExpr(c *interp.Compiled, e ast.Expr, sym int) (useClass, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		if s := c.Info.Uses[x]; s != nil && s.ID == sym {
			return useClass{kind: classInjective}, true
		}
	case *ast.IndexExpr:
		if s := c.Info.Uses[x.X]; s != nil && s.ID == sym {
			return useClass{kind: classInjective}, true
		}
		if _, ok := classifyExpr(c, x.Index, sym); ok {
			return useClass{kind: classOpaque}, true // sym selects the element
		}
	case *ast.UnaryExpr:
		if cls, ok := classifyExpr(c, x.X, sym); ok {
			switch x.Op {
			case token.SUB, token.TILD:
				return cls, true
			case token.NOT:
				return degrade(cls, useClass{kind: classCompare}), true
			}
		}
	case *ast.BinaryExpr:
		inX, okX := classifyExpr(c, x.X, sym)
		inY, okY := classifyExpr(c, x.Y, sym)
		if !okX && !okY {
			return useClass{}, false
		}
		var inner useClass
		var other ast.Expr
		if okX {
			inner, other = inX, x.Y
		} else {
			inner, other = inY, x.X
		}
		switch x.Op {
		case token.ADD, token.SUB, token.XOR:
			return inner, true
		case token.MUL:
			if lit, ok := other.(*ast.IntLit); ok && lit.Value != 0 {
				return inner, true
			}
			return degrade(inner, useClass{kind: classOpaque}), true
		case token.REM:
			if okX {
				if lit, ok := other.(*ast.IntLit); ok && lit.Value > 1 {
					return degrade(inner, useClass{kind: classMod, k: lit.Value}), true
				}
			}
			return degrade(inner, useClass{kind: classOpaque}), true
		case token.QUO:
			if okX {
				if lit, ok := other.(*ast.IntLit); ok && lit.Value > 1 {
					return degrade(inner, useClass{kind: classDiv, k: lit.Value}), true
				}
			}
			return degrade(inner, useClass{kind: classOpaque}), true
		case token.AND:
			if lit, ok := other.(*ast.IntLit); ok {
				return degrade(inner, useClass{kind: classMask, k: lit.Value}), true
			}
			return degrade(inner, useClass{kind: classOpaque}), true
		case token.SHL, token.SHR, token.OR:
			return degrade(inner, useClass{kind: classOpaque}), true
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return degrade(inner, useClass{kind: classCompare}), true
		}
	case *ast.CallExpr:
		for _, a := range x.Args {
			if _, ok := classifyExpr(c, a, sym); ok {
				return useClass{kind: classOpaque}, true
			}
		}
	}
	return useClass{}, false
}

// degrade composes an inner class with an outer constraint: an injective
// inner mapping inherits the outer class; anything weaker becomes opaque
// (two lossy stages are not tracked).
func degrade(inner, outer useClass) useClass {
	if inner.kind == classInjective {
		return outer
	}
	if outer.kind == classInjective {
		return inner
	}
	return useClass{kind: classOpaque}
}
