// Package trace defines the execution trace model produced by the MiniC
// interpreter and consumed by every dynamic analysis in this repository.
//
// A trace is a sequence of *entries*, one per executed statement instance,
// in execution order (the entry index doubles as the timestamp the paper's
// prototype attached to its dependence graph). For each entry the trace
// records:
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
// Entries hold no records and no pointers. Each entry's use and
// definition records are one contiguous run in the trace's two record
// arenas; Uses and Defs read them, and AddUse and AddDef, called while
// the entry's statement runs, write them. The entry, record and
// children arrays hold no pointers, so the garbage collector never scans
// them.
//
// Entries are stored in up to two levels: a shared immutable prefix (set
// only on traces created by Prefix.Fork, which is how checkpointed
// re-execution shares the unswitched prefix of the failing run with every
// forked switched run — see docs/CHECKPOINT.md) and an owned suffix that
// Append extends. A fork reads the prefix entries' records from the base
// trace's arenas and keeps the suffix entries' records in arenas of its
// own. All accessors (At, Len, Uses, Children, FindInstance, ...)
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
	Sym  int32 // symbol ID; RetvalSym for a consumed return value
	Def  int32 // trace index of defining entry, or NoDef
	Elem int64 // array element index, or ScalarElem
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

// Entry is one executed statement instance. Its index in the trace is
// its timestamp. Its use and definition records are read through
// Trace.Uses and Trace.Defs.
type Entry struct {
	Inst   Instance // statement instance
	Frame  int32    // activation frame ID (0 = globals, 1 = main, ...)
	Parent int32    // trace index of the dynamic control parent, or -1

	// uses and defs locate the entry's records in the record arenas of
	// the trace that owns the entry.
	uses, defs span

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

// span is one entry's run of records in a record arena.
type span struct{ off, n int32 }

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
	// a capacity-clipped view of src's entries for traces built by
	// Prefix.Fork. It is never mutated and never appended to (the clip
	// forces any append to reallocate).
	base []Entry
	// src, set by Fork, is the finished trace base was cut from. The
	// prefix entries' records, children rows and instance rows are read
	// from it.
	src *Trace
	// entries is the owned suffix Append extends; uses and defs are the
	// record arenas its entries' spans point into.
	entries []Entry
	uses    []UseRec
	defs    []DefRec
	Outputs []Output

	// The children of owned entry i are kids[kidStart[i-len(base)]:
	// kidStart[i-len(base)+1]]. On a fork, the row of prefix entry p is
	// src's row clipped at the cut, or childOver[p] for the few prefix
	// parents whose rows gained suffix children. Roots (Parent == -1)
	// are in rootsList, which covers base and suffix uniformly.
	kidStart  []int32
	kids      []int
	childOver map[int][]int
	rootsList []int

	// anc is the lazily built ancestor index; see Ancestry. baseAnc, set
	// by Fork when the base already has an ancestry index, seeds this
	// fork's Ancestry with the base's interval ends instead of a full
	// recomputation.
	anc     *Ancestry
	baseAnc *Ancestry

	// own, the per-statement instance rows of the owned entries, doubles
	// as the "Finish ran" marker.
	own *instRows
}

// New creates an empty trace. The caller appends its entries and then
// calls Finish once, before any index query.
func New() *Trace { return &Trace{} }

// Append adds an entry (with Parent already set, and no records) and
// returns its index.
func (t *Trace) Append(e Entry) int {
	if t.own != nil {
		panic("trace: Append to a finished trace")
	}
	t.entries = append(t.entries, e)
	return t.Len() - 1
}

// AddUse appends a use record to entry i, and AddDef a definition
// record. An entry's records stay one contiguous run: if other entries
// recorded since entry i's last record (a call statement whose callee
// ran in between), entry i's records first move to the arena's end, so
// record order within an entry is always recording order. Records can
// only be added to owned entries of an unfinished trace; adding one to a
// fork's shared prefix entry panics.
func (t *Trace) AddUse(i int, u UseRec) {
	e := t.recording(i)
	e.uses = addRec(&t.uses, e.uses, u)
}

// AddDef appends a definition record to entry i; see AddUse.
func (t *Trace) AddDef(i int, d DefRec) {
	e := t.recording(i)
	e.defs = addRec(&t.defs, e.defs, d)
}

func (t *Trace) recording(i int) *Entry {
	if t.own != nil {
		panic("trace: record added to a finished trace")
	}
	if i < len(t.base) {
		panic(fmt.Sprintf("trace: record added to shared prefix entry %d", i))
	}
	return &t.entries[i-len(t.base)]
}

func addRec[R UseRec | DefRec](arena *[]R, s span, r R) span {
	a := *arena
	if s.n == 0 {
		s.off = int32(len(a))
	} else if int(s.off+s.n) != len(a) {
		a = append(a, a[s.off:s.off+s.n]...)
		s.off = int32(len(a)) - s.n
	}
	*arena = append(a, r)
	s.n++
	return s
}

// Uses returns entry i's use records in recording order. The slice
// aliases the trace and must not be modified.
func (t *Trace) Uses(i int) []UseRec {
	if i < len(t.base) {
		return recs(t.src.uses, t.base[i].uses)
	}
	return recs(t.uses, t.entries[i-len(t.base)].uses)
}

// Defs returns entry i's definition records in recording order. The
// slice aliases the trace and must not be modified.
func (t *Trace) Defs(i int) []DefRec {
	if i < len(t.base) {
		return recs(t.src.defs, t.base[i].defs)
	}
	return recs(t.defs, t.entries[i-len(t.base)].defs)
}

func recs[R any](arena []R, s span) []R {
	end := s.off + s.n
	return arena[s.off:end:end]
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
// nested regions' members), in execution order. The slice aliases the
// trace and must not be modified.
func (t *Trace) Children(i int) []int {
	t.ensureFinished()
	nb := len(t.base)
	if i >= nb {
		lo, hi := t.kidStart[i-nb], t.kidStart[i-nb+1]
		return t.kids[lo:hi:hi]
	}
	if row, ok := t.childOver[i]; ok {
		return row
	}
	return t.prefixRow(i)
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
