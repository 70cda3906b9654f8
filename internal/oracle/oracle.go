// Package oracle mechanizes the paper's evaluation protocol.
//
// The PLDI 2007 experiments used a human in two places: answering "is the
// program state at this instance benign?" during pruning, and manually
// identifying OS, the failure-inducing dependence chain, as the ground
// truth ("statement instances not in OS were selected from the pruned
// slice in order as being benign").
//
// This package derives both mechanically from the *correct* version of
// the program (available for every seeded fault):
//
//   - The faulty and correct runs are paired by a lockstep walk over
//     their region trees: siblings pair positionally while their head
//     statements agree; subtrees are descended only when the paired heads
//     took the same branch. (Faults are expression-level, single-
//     statement edits, so both programs share statement numbering.)
//   - An instance is *benign* iff it pairs with a correct-run instance
//     that produced the same value, took the same branch, and printed the
//     same outputs. Unpaired instances are corrupted.
//
// This is exactly "does this instance hold corrupted program state",
// answered against ground truth instead of programmer judgment.
package oracle

import (
	"eol/internal/trace"
)

// Pairing maps faulty-run entries to correct-run entries.
type Pairing struct {
	faulty, correct *trace.Trace
	pair            map[int]int
}

// Pair aligns the faulty trace against the correct (reference) trace.
func Pair(faulty, correct *trace.Trace) *Pairing {
	p := &Pairing{faulty: faulty, correct: correct, pair: map[int]int{}}
	p.pairSiblings(faulty.Roots(), correct.Roots())
	return p
}

func (p *Pairing) pairSiblings(fs, cs []int) {
	n := len(fs)
	if len(cs) < n {
		n = len(cs)
	}
	for i := 0; i < n; i++ {
		fe := p.faulty.At(fs[i])
		ce := p.correct.At(cs[i])
		if fe.Inst.Stmt != ce.Inst.Stmt {
			return // structural divergence: stop pairing this level
		}
		p.pair[fs[i]] = cs[i]
		if fe.Branch == ce.Branch {
			p.pairSiblings(p.faulty.Children(fs[i]), p.correct.Children(cs[i]))
		}
	}
}

// Match returns the correct-run entry paired with faulty entry e, or -1.
func (p *Pairing) Match(e int) int {
	if m, ok := p.pair[e]; ok {
		return m
	}
	return -1
}

// Benign reports whether faulty entry e holds benign program state: it
// pairs with a correct-run instance with identical produced value, read
// values, branch outcome and printed outputs.
func (p *Pairing) Benign(e int) bool {
	m, ok := p.pair[e]
	if !ok {
		return false
	}
	fe := p.faulty.At(e)
	ce := p.correct.At(m)
	if fe.Value != ce.Value || fe.Branch != ce.Branch {
		return false
	}
	fus, cus := p.faulty.Uses(e), p.correct.Uses(m)
	if len(fus) != len(cus) {
		return false
	}
	for i, fu := range fus {
		cu := cus[i]
		if fu.Sym != cu.Sym || fu.Elem != cu.Elem || fu.Val != cu.Val {
			return false
		}
	}
	fo := p.faulty.OutputsOf(e)
	co := p.correct.OutputsOf(m)
	if len(fo) != len(co) {
		return false
	}
	for i := range fo {
		if fo[i].Value != co[i].Value {
			return false
		}
	}
	return true
}

// Corrupted returns all faulty-run entries with corrupted state.
func (p *Pairing) Corrupted() map[int]bool {
	res := map[int]bool{}
	for e := 0; e < p.faulty.Len(); e++ {
		if !p.Benign(e) {
			res[e] = true
		}
	}
	return res
}

// StateOracle adapts trace pairing to the core.Oracle interface. The
// pairing against the correct reference trace is built lazily per faulty
// trace (the locator runs the faulty program itself; determinism makes
// any run of it structurally identical).
type StateOracle struct {
	Correct *trace.Trace

	last  *trace.Trace
	cache *Pairing
}

// IsBenign implements the benign-state query against ground truth.
func (o *StateOracle) IsBenign(t *trace.Trace, entry int) bool {
	if o.cache == nil || o.last != t {
		o.cache = Pair(t, o.Correct)
		o.last = t
	}
	return o.cache.Benign(entry)
}
