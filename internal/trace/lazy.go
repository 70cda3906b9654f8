package trace

import "sort"

// Deferred index construction: the VM appends tens of thousands of
// entries per run, and per-append index maintenance — a children row
// append, an instance-map insert — would dominate trace construction.
// A trace therefore records entries only while its run executes;
// Finish, called once when the run completes, materializes every
// derived index in flat exact-sized passes:
//
//   - children rows and the roots list are carved out of one shared
//     arena sized by a counting pass (no amortized-growth appends, no
//     per-parent small allocations),
//   - the instance index is a per-statement row table (rows[s][k] is
//     the trace index of S<s>#<start[s]+k>) instead of a hash map keyed
//     by Instance.
//
// The row table relies on two properties every interpreter trace has:
// statement IDs are non-negative, and each statement's occurrences are
// numbered 1, 2, ... in entry order. internal/proptest checks every index against a brute-force
// scan of the entries on both backends' traces and on VM forks.
// Querying a trace before Finish (or appending after it) is a
// programming error and panics, which is also what makes the scheme
// race-free: Finish runs on the executing goroutine before the trace is
// ever shared.

// instRows is the instance index of a finished trace, covering the
// owned suffix only (the whole trace when unforked). rows[s] lists the
// trace indices of statement s's instances in execution order; start[s]
// is the occurrence number of rows[s][0] (occurrence numbering continues
// across a fork's checkpoint cut, so start-1 is also the number of
// prefix instances whenever rows[s] is non-empty).
type instRows struct {
	rows  [][]int
	start []int32
}

// Reserve pre-allocates capacity for at least n further Append calls.
// The VM backend calls it on forked suffix traces, where the original
// run's length is a good estimate of the switched suffix; it is a pure
// capacity hint and never changes observable state.
func (t *Trace) Reserve(n int) {
	if free := cap(t.entries) - len(t.entries); n <= 0 || free >= n {
		return
	}
	grown := make([]Entry, len(t.entries), len(t.entries)+n)
	copy(grown, t.entries)
	t.entries = grown
}

// AppendSlot extends the trace by one zero entry and returns it for
// in-place initialization, together with its index. This is the VM
// backend's emission path: filling a handful of integer fields in the
// slot skips the 100-byte entry copy (and its pointer write barriers)
// that Append pays. Slots inside reserved capacity are already zero —
// make and slice growth both hand out zeroed memory, and entries are
// never truncated — so extending the length is all it takes.
func (t *Trace) AppendSlot() (*Entry, int) {
	if t.own != nil {
		panic("trace: Append to a finished trace")
	}
	idx := t.Len()
	if len(t.entries) < cap(t.entries) {
		t.entries = t.entries[:len(t.entries)+1]
	} else {
		t.entries = append(t.entries, Entry{})
	}
	e := &t.entries[len(t.entries)-1]
	e.Idx = idx
	return e, idx
}

// Finish materializes the derived indices of the trace. It must be
// called exactly once, on the goroutine that appended, after the last
// Append.
func (t *Trace) Finish() {
	if t.own != nil {
		panic("trace: Finish called twice")
	}
	nb := len(t.base)
	n := len(t.entries)

	// Children and roots. Rows of owned parents are carved from one
	// arena sized by a counting pass; on unforked traces that is every
	// row. On forked traces the prefix rows stay in the Prefix's shared
	// read-only prototype, with the handful of prefix parents that gained
	// suffix children (the control chain open at the checkpoint cut)
	// overridden in a sparse map — no O(prefix) copy per fork.
	counts := make([]int32, n)
	roots, maxStmt := 0, 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.Parent < 0 {
			roots++
		} else if e.Parent >= nb {
			counts[e.Parent-nb]++
		}
		if e.Inst.Stmt > maxStmt {
			maxStmt = e.Inst.Stmt
		}
	}
	total := 0
	for _, c := range counts {
		total += int(c)
	}
	arena := make([]int, total)
	kids := make([][]int, n)
	cur := 0
	for p, c := range counts {
		if c > 0 {
			kids[p] = arena[cur : cur : cur+int(c)]
			cur += int(c)
		}
	}
	if roots > 0 {
		grown := make([]int, len(t.rootsList), len(t.rootsList)+roots)
		copy(grown, t.rootsList)
		t.rootsList = grown
	}
	for i := range t.entries {
		idx := nb + i
		switch p := t.entries[i].Parent; {
		case p < 0:
			t.rootsList = append(t.rootsList, idx)
		case p >= nb:
			kids[p-nb] = append(kids[p-nb], idx)
		default:
			// Suffix child of a prefix parent: start from the prototype
			// row (capacity-clipped, so this append reallocates a fresh
			// copy) and record the override.
			if t.childOver == nil {
				t.childOver = map[int][]int{}
			}
			row, ok := t.childOver[p]
			if !ok {
				row = t.baseChildren[p]
			}
			t.childOver[p] = append(row, idx)
		}
	}
	t.children = kids

	// Instance rows, same counting-pass-then-carve shape.
	r := &instRows{
		rows:  make([][]int, maxStmt+1),
		start: make([]int32, maxStmt+1),
	}
	scounts := make([]int32, maxStmt+1)
	for i := range t.entries {
		scounts[t.entries[i].Inst.Stmt]++
	}
	total = 0
	for _, c := range scounts {
		total += int(c)
	}
	sarena := make([]int, total)
	cur = 0
	for s, c := range scounts {
		if c > 0 {
			r.rows[s] = sarena[cur : cur : cur+int(c)]
			cur += int(c)
		}
	}
	for i := range t.entries {
		e := &t.entries[i]
		s := e.Inst.Stmt
		if len(r.rows[s]) == 0 {
			r.start[s] = int32(e.Inst.Occ)
		}
		r.rows[s] = append(r.rows[s], nb+i)
	}
	t.own = r
}

// ensureFinished guards every index query.
func (t *Trace) ensureFinished() {
	if t.own == nil {
		panic("trace: queried before Finish")
	}
}

// FindInstance returns the trace index of the given statement instance,
// or -1 if it did not execute. The suffix rows answer directly; an
// instance before the fork cut resolves through the base trace's rows,
// valid only inside the shared prefix (the base run continued past the
// cut, and those later instances did not necessarily execute here).
func (t *Trace) FindInstance(inst Instance) int {
	t.ensureFinished()
	s := inst.Stmt
	if r := t.own; s >= 0 && s < len(r.rows) && len(r.rows[s]) > 0 {
		if inst.Occ >= int(r.start[s]) {
			if j := inst.Occ - int(r.start[s]); j < len(r.rows[s]) {
				return r.rows[s][j]
			}
			return -1
		}
	}
	if br := t.baseRows; br != nil && s >= 0 && s < len(br.rows) {
		row := br.rows[s]
		if j := inst.Occ - 1; j >= 0 && j < len(row) && row[j] < len(t.base) {
			return row[j]
		}
	}
	return -1
}

// Occurrences returns how many times statement stmt executed.
func (t *Trace) Occurrences(stmt int) int {
	t.ensureFinished()
	if r := t.own; stmt >= 0 && stmt < len(r.rows) && len(r.rows[stmt]) > 0 {
		// Occurrence numbering is contiguous across the fork cut, so the
		// suffix row's start pins the prefix count.
		return int(r.start[stmt]) - 1 + len(r.rows[stmt])
	}
	if br := t.baseRows; br != nil && stmt >= 0 && stmt < len(br.rows) {
		// Prefix-only statement: count the base instances inside the cut.
		return sort.SearchInts(br.rows[stmt], len(t.base))
	}
	return 0
}

// InstancesOf returns the trace indices of all instances of statement
// stmt, in execution order. Unforked traces return their row directly
// (no allocation); forked traces stitch the prefix part of the base row
// to the suffix row.
func (t *Trace) InstancesOf(stmt int) []int {
	t.ensureFinished()
	if t.base == nil {
		if r := t.own; stmt >= 0 && stmt < len(r.rows) {
			return r.rows[stmt]
		}
		return nil
	}
	var res []int
	if br := t.baseRows; br != nil && stmt >= 0 && stmt < len(br.rows) {
		row := br.rows[stmt]
		cut := sort.SearchInts(row, len(t.base))
		res = row[:cut:cut]
	}
	if r := t.own; stmt >= 0 && stmt < len(r.rows) && len(r.rows[stmt]) > 0 {
		res = append(res, r.rows[stmt]...)
	}
	return res
}
