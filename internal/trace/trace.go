// Package trace defines the execution trace model produced by the MiniC
// interpreter and consumed by every dynamic analysis in this repository.
//
// A trace is a sequence of *entries*, one per executed statement instance,
// in execution order (the entry index doubles as the timestamp the paper's
// prototype attached to its dependence graph). Each entry records:
//
//   - its statement instance (statement ID, occurrence number),
//   - its dynamic control parent (the most recent open predicate instance
//     it is statically control dependent on, or the call-site instance for
//     the top level of a callee) — the parent relation *is* the region
//     decomposition of Definition 3 of the PLDI 2007 paper,
//   - the cells it read, each with the trace index of the defining entry
//     (dynamic data dependences),
//   - the cells it defined and the produced value,
//   - for predicates, the taken branch and whether it was forcibly
//     switched.
//
// Output events (printed int values) are recorded separately with their
// producing entry; they are the observations that confidence analysis and
// the strong-implicit-dependence check (Definition 4) work from.
//
// Entries are stored in up to two levels: a shared immutable prefix (set
// only on traces created by Prefix.Fork, which is how checkpointed
// re-execution shares the unswitched prefix of the failing run with every
// forked switched run — see docs/CHECKPOINT.md) and an owned suffix that
// Append extends. All accessors (At, Len, Children, FindInstance, ...)
// present the two levels as one contiguous trace.
//
// Both execution backends build traces the same way: they append
// entries during the run and call Finish once at its end, which builds
// the children, roots and per-statement instance indices in flat passes
// (lazy.go). Traces only ever come from a run (or a fork of one), so
// Finish trusts its input: parents precede their children and regions
// nest properly.
package trace

import (
	"fmt"

	"eol/internal/cfg"
)

// NoDef marks a use whose value did not come from any traced definition
// (uninitialized cell, program input, or function return plumbing).
const NoDef = -1

// Instance identifies a statement instance: the Occ-th dynamic execution
// of statement Stmt. Occ is 1-based, matching the paper's "15(1)" style
// notation.
type Instance struct {
	Stmt int
	Occ  int
}

// String renders the instance in the paper's notation, e.g. "S15#2".
func (i Instance) String() string { return fmt.Sprintf("S%d#%d", i.Stmt, i.Occ) }

// UseRec records one dynamic use: the abstract location read and the
// trace index of the entry that defined the value (NoDef if none).
type UseRec struct {
	Sym  int   // symbol ID; RetvalSym for a consumed return value
	Elem int64 // array element index, or ScalarElem
	Def  int   // trace index of defining entry, or NoDef
	Val  int64 // the value read
}

// ScalarElem is the Elem value for scalar cells.
const ScalarElem int64 = -1

// RetvalSym is the pseudo symbol ID used for function return values.
const RetvalSym = -2

// DefRec records one dynamic definition: the abstract location written.
type DefRec struct {
	Sym  int
	Elem int64
}

// Entry is one executed statement instance.
type Entry struct {
	Idx    int      // == position in the trace (timestamp)
	Inst   Instance // statement instance
	Frame  int      // activation frame ID (0 = globals, 1 = main, ...)
	Parent int      // trace index of the dynamic control parent, or -1

	Uses []UseRec
	Defs []DefRec

	// Value is the primary value produced: assigned value for
	// assignments/declarations, branch outcome (0/1) for predicates,
	// returned value for returns.
	Value int64

	// Branch is the *effective* branch outcome for predicates (after any
	// forced switch); cfg.None for non-predicates.
	Branch cfg.Label

	// Switched marks the predicate instance whose outcome was forcibly
	// inverted in this run.
	Switched bool
}

// Output is one printed int value.
type Output struct {
	Seq   int // 0-based global output sequence number
	Entry int // producing trace entry index
	Arg   int // 0-based index among the int arguments of the print stmt
	Value int64
}

// Trace is a complete execution trace. Index queries panic until
// Finish has run, and appends panic after it.
type Trace struct {
	// base is the shared immutable prefix: nil for traces built by New,
	// a capacity-clipped view of another trace's entries for traces built
	// by Prefix.Fork. It is never mutated and never appended to (the clip
	// forces any append to reallocate).
	base []Entry
	// entries is the owned suffix Append extends.
	entries []Entry
	Outputs []Output

	// children[i-len(base)] lists the trace indices whose Parent == i,
	// in order, for each owned entry i; prefix rows of a fork are in
	// baseChildren and childOver. Roots (Parent == -1) are in rootsList,
	// which covers base and suffix uniformly.
	children  [][]int
	rootsList []int

	// anc is the lazily built ancestor index; see Ancestry. baseAnc, set
	// by Fork when the base already has an ancestry index, seeds this
	// fork's Ancestry with the base's interval ends instead of a full
	// recomputation.
	anc     *Ancestry
	baseAnc *Ancestry

	// own, the per-statement instance rows of the owned entries, doubles
	// as the "Finish ran" marker. baseRows and baseChildren, set by Fork,
	// are the base trace's complete instance row table (a hit is valid
	// only inside the shared prefix) and the prefix's shared read-only
	// children prototype. Finish on forks fills childOver (the few
	// prefix parents whose rows gained suffix children) instead of
	// copying the prototype into a flat array.
	own          *instRows
	baseRows     *instRows
	baseChildren [][]int
	childOver    map[int][]int
}

// New creates an empty trace. The caller appends its entries and then
// calls Finish once, before any index query.
func New() *Trace { return &Trace{} }

// Append adds an entry (with Parent already set) and returns its index.
func (t *Trace) Append(e Entry) int {
	if t.own != nil {
		panic("trace: Append to a finished trace")
	}
	e.Idx = t.Len()
	t.entries = append(t.entries, e)
	return e.Idx
}

// Len returns the number of entries.
func (t *Trace) Len() int { return len(t.base) + len(t.entries) }

// At returns a pointer to entry i. Callers must treat entries inside a
// forked trace's shared prefix as read-only.
func (t *Trace) At(i int) *Entry {
	if i < len(t.base) {
		return &t.base[i]
	}
	return &t.entries[i-len(t.base)]
}

// Children returns the trace indices directly control dependent on entry
// i (the members of entry i's region, excluding i itself and excluding
// nested regions' members), in execution order.
func (t *Trace) Children(i int) []int {
	t.ensureFinished()
	if nb := len(t.base); i >= nb {
		return t.children[i-nb]
	} else if row, ok := t.childOver[i]; ok {
		return row
	}
	return t.baseChildren[i]
}

// Roots returns the top-level entries (global initializers and the
// statements of main's body not nested in any predicate).
func (t *Trace) Roots() []int {
	t.ensureFinished()
	return t.rootsList
}

// OutputAt returns the output event with the given sequence number, or
// nil.
func (t *Trace) OutputAt(seq int) *Output {
	if seq < 0 || seq >= len(t.Outputs) {
		return nil
	}
	return &t.Outputs[seq]
}

// OutputsOf returns the output events produced by entry i.
func (t *Trace) OutputsOf(i int) []Output {
	var res []Output
	for _, o := range t.Outputs {
		if o.Entry == i {
			res = append(res, o)
		}
	}
	return res
}

// OutputValues returns just the printed values in order.
func (t *Trace) OutputValues() []int64 {
	vals := make([]int64, len(t.Outputs))
	for i, o := range t.Outputs {
		vals[i] = o.Value
	}
	return vals
}

// String summarizes the trace.
func (t *Trace) String() string {
	return fmt.Sprintf("trace{%d entries, %d outputs}", t.Len(), len(t.Outputs))
}
