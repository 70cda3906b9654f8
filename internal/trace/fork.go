package trace

import (
	"fmt"
	"sync"
)

// Prefix is a handle on the first n entries of a trace, from which
// suffix-extending forks can be created in O(prefix) once and O(1)
// allocations per fork thereafter. It is the trace-side half of
// checkpointed re-execution (docs/CHECKPOINT.md): the interpreter
// captures a Prefix at each checkpoint of the failing run, and every
// switched run forked from that checkpoint starts from Fork() instead of
// re-appending the whole unswitched prefix.
//
// The handle may be taken while the base trace is still being appended
// to; the skeleton (per-entry child counts, root and output counts) is
// computed lazily on first Fork, by which time the base run has
// completed. Fork is safe for concurrent use.
type Prefix struct {
	t *Trace
	n int

	once   sync.Once
	proto  [][]int // per prefix entry, its children < n, capacity-clipped
	nRoots int     // rootsList entries < n
	nOuts  int     // outputs produced by entries < n
}

// PrefixAt returns a fork handle on the first n entries of t. The trace
// must itself be unforked (one level of sharing keeps every index
// meaning "offset into the one original failing run").
func (t *Trace) PrefixAt(n int) *Prefix {
	if t.base != nil {
		panic("trace: PrefixAt on a forked trace")
	}
	if n < 0 || n > len(t.entries) {
		panic(fmt.Sprintf("trace: PrefixAt(%d) out of range [0,%d]", n, len(t.entries)))
	}
	return &Prefix{t: t, n: n}
}

// Len returns the prefix length in entries.
func (p *Prefix) Len() int { return p.n }

// BaseLen returns the full length of the base trace the prefix was taken
// from — a sizing hint for forked suffix runs.
func (p *Prefix) BaseLen() int { return p.t.Len() }

// build computes the fork skeleton: one counting pass over the prefix,
// then the shared children prototype — per prefix entry, the
// capacity-clipped row of its children inside the cut, shared read-only
// by every fork. Entries, children rows, rootsList and Outputs of the
// base trace are final for indices < n once its run has finished, so
// this is safe to run lazily, on the first Fork.
func (p *Prefix) build() {
	// The base must have been finished by its run before any fork (Fork
	// reads its children rows and roots list); fail loudly if not.
	p.t.ensureFinished()
	childCut := make([]int32, p.n)
	for i := 0; i < p.n; i++ {
		if par := p.t.entries[i].Parent; par >= 0 {
			childCut[par]++
		} else {
			p.nRoots++
		}
	}
	p.proto = make([][]int, p.n)
	for i, cut := range childCut {
		if cut > 0 {
			p.proto[i] = p.t.children[i][:cut:cut]
		}
	}
	for _, o := range p.t.Outputs {
		if o.Entry >= p.n {
			break // outputs are appended in entry order
		}
		p.nOuts++
	}
}

// Fork returns a new Trace whose first n entries are shared with the
// base trace (no entry copies) and which can be appended to
// independently. Shared state is handed out through capacity-clipped
// slice views, so the first append to any shared slice reallocates
// instead of scribbling on the base trace; the prefix entries themselves
// must be treated as read-only through the fork (Trace.At documents
// this). The suffix run appends to the fork and calls Finish; prefix
// instances resolve through the base trace's complete row table, and
// prefix children rows through the shared prototype, so the fork itself
// allocates no O(prefix) state.
func (p *Prefix) Fork() *Trace {
	p.once.Do(p.build)
	t := p.t
	return &Trace{
		base:         t.entries[:p.n:p.n],
		Outputs:      t.Outputs[:p.nOuts:p.nOuts],
		rootsList:    t.rootsList[:p.nRoots:p.nRoots],
		baseRows:     t.own,
		baseChildren: p.proto,
		baseAnc:      t.anc,
	}
}
