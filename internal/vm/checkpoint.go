package vm

import (
	"eol/internal/interp"
	"eol/internal/trace"
)

// Checkpointed re-execution (docs/CHECKPOINT.md). The VM's execution
// state is explicit: a snapshot is the pc, the frozen frame stack, the
// call records and the (empty-at-capture) operand stack, and a fork is
// "restore and jump". The compiler places an opCheck poll point before
// every predicate's opBegin; a capture fires only at an opCheck
// executing in main's frame, on a stride-doubling / thin-on-overflow
// schedule.

// checkpoint is one VM snapshot, immutable once captured and safe for
// concurrent forks (frames are frozen copy-on-write).
type checkpoint struct {
	steps    int
	inPos    int
	nextAct  int
	occ      []int
	frames   []*frame
	calls    []callRec
	stack    []int64 // operand stack (always empty at statement level)
	pc       int32   // resume point: just past the opCheck that fired
	rendered string
	prefix   *trace.Prefix
}

// approxBytes estimates the state retained by this checkpoint: private
// copies only — frozen array elements are shared with the base run (and
// other checkpoints) and the trace prefix is shared by construction, so
// neither is charged here.
func (ck *checkpoint) approxBytes() int64 {
	n := int64(len(ck.occ))*8 + int64(len(ck.calls))*24 + int64(len(ck.stack))*8 + int64(len(ck.rendered)) + 256
	for _, fr := range ck.frames {
		n += int64(len(fr.scalars))*16 + int64(len(fr.arrays))*9 + int64(len(fr.ctrl))*16 + 64
	}
	return n
}

// Store collects VM checkpoints during one traced run and answers
// nearest-checkpoint queries for forks. Capture is a deterministic
// stride-doubling policy: capture at every eligible opCheck once the
// step counter passes the next mark; past max, drop every second
// checkpoint and double the stride. The result is at most max
// checkpoints, roughly evenly spaced over the run and chosen identically
// on every execution (no clocks, no randomness). A store is bound to a
// single run; afterwards Nearest/Stats/Len are read-only and safe for
// concurrent use.
type Store struct {
	max    int
	stride int
	next   int
	tr     *trace.Trace
	cks    []*checkpoint

	captured, thinned int
	bytes             int64
}

// NewStore returns a store bounded to max checkpoints (<= 0 means
// interp.DefaultCheckpoints).
func NewStore(max int) *Store {
	if max <= 0 {
		max = interp.DefaultCheckpoints
	}
	return &Store{max: max, stride: 1}
}

// bind attaches the store to the run that fills it.
func (st *Store) bind(tr *trace.Trace) {
	if st.tr != nil && st.tr != tr {
		panic("vm: Store reused across runs")
	}
	st.tr = tr
}

// Len returns the number of retained checkpoints.
func (st *Store) Len() int { return len(st.cks) }

// Stats snapshots the store's counters.
func (st *Store) Stats() interp.CheckpointStats {
	return interp.CheckpointStats{
		Count: len(st.cks), Bytes: st.bytes,
		Captured: st.captured, Thinned: st.thinned,
	}
}

// Nearest returns the latest checkpoint whose trace prefix ends at or
// before trace entry traceIdx, or nil if none precedes it.
func (st *Store) Nearest(traceIdx int) *checkpoint {
	lo, hi := 0, len(st.cks)
	for lo < hi {
		mid := (lo + hi) / 2
		if st.cks[mid].prefix.Len() <= traceIdx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	return st.cks[lo-1]
}

// capture freezes the live frames and records the snapshot. pc points
// just past the opCheck that fired.
func (st *Store) capture(m *machine, pc int32) {
	for _, fr := range m.frames {
		fr.freeze()
	}
	ck := &checkpoint{
		steps:    m.res.Steps,
		inPos:    m.inPos,
		nextAct:  m.nextAct,
		occ:      append([]int(nil), m.occ...),
		frames:   append([]*frame(nil), m.frames...),
		calls:    append([]callRec(nil), m.calls...),
		stack:    append([]int64(nil), m.stack[:m.sp]...),
		pc:       pc,
		rendered: m.out.String(),
		prefix:   st.tr.PrefixAt(m.tr.Len()),
	}
	st.cks = append(st.cks, ck)
	st.captured++
	st.bytes += ck.approxBytes()
	if len(st.cks) > st.max {
		st.thin()
	}
	st.next = m.res.Steps + st.stride
}

// thin drops every second checkpoint and doubles the stride.
func (st *Store) thin() {
	kept := st.cks[:0]
	var bytes int64
	for i, ck := range st.cks {
		if i%2 == 0 {
			kept = append(kept, ck)
			bytes += ck.approxBytes()
		} else {
			st.thinned++
		}
	}
	for i := len(kept); i < len(st.cks); i++ {
		st.cks[i] = nil
	}
	st.cks = kept
	st.bytes = bytes
	st.stride *= 2
}
