package trace

import "sort"

// Deferred index construction: the VM appends tens of thousands of
// entries per run, and per-append index maintenance — an instance-map
// insert, an interval update up the open chain — would dominate trace
// construction. A trace therefore records entries only while its run
// executes; Finish, called once when the run completes, materializes
// every derived index in flat exact-sized passes:
//
//   - the region forest's interval ends (Ancestry), one reverse pass,
//   - the instance index, a per-statement row table (rows[s][k] is the
//     trace index of S<s>#<start[s]+k>) instead of a hash map keyed by
//     Instance.
//
// Children and roots are not stored: they are read from the interval
// ends (see Ancestry). The row table relies on two properties every
// interpreter trace has: statement IDs are non-negative, and each
// statement's occurrences are numbered 1, 2, ... in entry order.
// internal/proptest checks every index against a brute-force scan of the
// entries on both backends' traces and on VM forks. Querying a trace
// before Finish (or appending after it) is a programming error and
// panics, which is also what makes the scheme race-free: Finish runs on
// the executing goroutine before the trace is ever shared.

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

// Finish materializes the derived indices of the trace. It must be
// called exactly once, on the goroutine that appended, after the last
// Append.
func (t *Trace) Finish() {
	if t.own != nil {
		panic("trace: Finish called twice")
	}
	nb := len(t.base)
	n := len(t.entries)
	t.anc = t.buildAncestry()

	// Instance rows: a counting pass sizes each statement's row, then
	// the rows are carved from one arena and filled in entry order.
	maxStmt := 0
	for i := range t.entries {
		maxStmt = max(maxStmt, t.entries[i].Inst.Stmt)
	}
	r := &instRows{
		rows:  make([][]int, maxStmt+1),
		start: make([]int32, maxStmt+1),
	}
	scounts := make([]int32, maxStmt+1)
	for i := range t.entries {
		scounts[t.entries[i].Inst.Stmt]++
	}
	sarena := make([]int, n)
	cur := 0
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
	if t.src != nil && s >= 0 && s < len(t.src.own.rows) {
		row := t.src.own.rows[s]
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
	if t.src != nil && stmt >= 0 && stmt < len(t.src.own.rows) {
		// Prefix-only statement: count the base instances inside the cut.
		return sort.SearchInts(t.src.own.rows[stmt], len(t.base))
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
	if stmt >= 0 && stmt < len(t.src.own.rows) {
		row := t.src.own.rows[stmt]
		cut := sort.SearchInts(row, len(t.base))
		res = row[:cut:cut]
	}
	if r := t.own; stmt >= 0 && stmt < len(r.rows) && len(r.rows[stmt]) > 0 {
		res = append(res, r.rows[stmt]...)
	}
	return res
}
