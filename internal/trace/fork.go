package trace

import (
	"fmt"
	"sort"
	"sync"
)

// Prefix is a handle on the first n entries of a trace, from which
// suffix-extending forks can be created with O(1) allocations per fork.
// It is the trace-side half of checkpointed re-execution
// (docs/CHECKPOINT.md): the interpreter captures a Prefix at each
// checkpoint of the failing run, and every switched run forked from
// that checkpoint starts from Fork() instead of re-appending the whole
// unswitched prefix.
//
// The handle may be taken while the base trace is still being appended
// to; the cut points and the suffix sizes are computed lazily on first
// Fork, by which time the base run has completed. Fork is safe for
// concurrent use.
type Prefix struct {
	t *Trace
	n int

	once  sync.Once
	nOuts int // outputs produced by entries < n
	// The base suffix's entry count and the arena lengths its records
	// occupy: the capacity a fork reserves, since a switched suffix
	// usually runs to a length comparable to the original one.
	sufEntries, sufUses, sufDefs int
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

// build finds the cut in the base's outputs (they are in entry order)
// and sizes the base suffix. Entries, records and Outputs of the base
// trace are final for indices < n once its run has finished, so this is
// safe to run lazily, on the first Fork.
func (p *Prefix) build() {
	// The base must have been finished by its run before any fork (a
	// fork reads its interval ends and instance rows); fail loudly if
	// not.
	t := p.t
	t.ensureFinished()
	p.nOuts = sort.Search(len(t.Outputs), func(k int) bool { return t.Outputs[k].Entry >= p.n })
	// The suffix's records start at the lowest offset any of its
	// entries holds; the arena past that point includes the copies left
	// behind when a call statement's records moved, which a fork's run
	// leaves behind as well.
	useCut, defCut := len(t.uses), len(t.defs)
	for _, e := range t.entries[p.n:] {
		if e.uses.n > 0 {
			useCut = min(useCut, int(e.uses.off))
		}
		if e.defs.n > 0 {
			defCut = min(defCut, int(e.defs.off))
		}
	}
	p.sufEntries, p.sufUses, p.sufDefs = len(t.entries)-p.n, len(t.uses)-useCut, len(t.defs)-defCut
}

// Fork returns a new Trace whose first n entries are shared with the
// base trace (no entry copies) and which can be appended to
// independently. Shared state is handed out through capacity-clipped
// slice views, so the first append to any shared slice reallocates
// instead of scribbling on the base trace; the prefix entries themselves
// are read-only through the fork (Trace.At documents this, and AddUse
// and AddDef panic on them). The suffix run appends to the fork and
// calls Finish; prefix records and instances resolve through the base
// trace, and the fork's interval ends (the one O(prefix) array it
// allocates) are seeded from the base's. Its entries and record arenas
// start with the base suffix's sizes reserved.
func (p *Prefix) Fork() *Trace {
	p.once.Do(p.build)
	t := p.t
	const slack = 64
	return &Trace{
		base:    t.entries[:p.n:p.n],
		src:     t,
		entries: make([]Entry, 0, p.sufEntries+slack),
		uses:    make([]UseRec, 0, p.sufUses+slack),
		defs:    make([]DefRec, 0, p.sufDefs+slack),
		Outputs: t.Outputs[:p.nOuts:p.nOuts],
	}
}
