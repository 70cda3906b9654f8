package vm

import (
	"eol/internal/cfg"
	"eol/internal/lang/sem"
	"eol/internal/trace"
)

// The VM's activation frames use the tree-walker's layout (dense
// slot-indexed cell slices) plus copy-on-write sharing for checkpoints:
// capture freezes every live frame, and the continuing run and every
// fork thaw (clone) a frozen frame before its first mutation, so
// concurrent forks share one snapshot without synchronization.

type cell struct {
	val int64
	def int // trace index of last writer, trace.NoDef if none
}

type ctrlEntry struct {
	entryIdx int
	ipdom    *cfg.Node
}

type frame struct {
	id         int // unique activation ID (0 = globals, 1 = main, then dense)
	scalars    []cell
	arrays     [][]cell
	callParent int // trace index of the call-site entry, -1 for main/globals
	ctrl       []ctrlEntry

	// frozen marks the frame as shared with >= 1 checkpoint; any mutation
	// must go through machine.thaw first.
	frozen bool
	// arrShared[i] marks arrays[i] as shared with a frozen snapshot.
	arrShared []bool
}

func newFrame(id, nslots, callParent int) *frame {
	f := &frame{
		id:         id,
		scalars:    make([]cell, nslots),
		arrays:     make([][]cell, nslots),
		callParent: callParent,
	}
	for i := range f.scalars {
		f.scalars[i].def = trace.NoDef
	}
	return f
}

// freeze marks the frame immutable for sharing with a checkpoint.
func (f *frame) freeze() {
	f.frozen = true
	if f.arrShared == nil {
		f.arrShared = make([]bool, len(f.arrays))
	}
	for i := range f.arrShared {
		f.arrShared[i] = true
	}
}

// thaw makes frame i writable: a frozen frame (shared with a
// checkpoint) is replaced by a private clone that still shares the
// array element storage (unshared per slot on first element write).
func (m *machine) thaw(i int) *frame {
	fr := m.frames[i]
	if !fr.frozen {
		return fr
	}
	nf := &frame{
		id:         fr.id,
		callParent: fr.callParent,
		scalars:    append([]cell(nil), fr.scalars...),
		arrays:     append([][]cell(nil), fr.arrays...),
		ctrl:       append([]ctrlEntry(nil), fr.ctrl...),
		arrShared:  append([]bool(nil), fr.arrShared...),
	}
	m.frames[i] = nf
	return nf
}

func (m *machine) thawTop() *frame { return m.thaw(len(m.frames) - 1) }

// targetFrame returns the frame where sym's cell lives.
func (m *machine) targetFrame(sym *sem.Symbol) *frame {
	if sym.Kind == sem.Global {
		return m.frames[0]
	}
	return m.frames[len(m.frames)-1]
}

func (m *machine) writableTargetFrame(sym *sem.Symbol) *frame {
	if sym.Kind == sem.Global {
		return m.thaw(0)
	}
	return m.thawTop()
}

func (m *machine) scalarCell(sym *sem.Symbol) *cell {
	return &m.targetFrame(sym).scalars[sym.Slot]
}

func (m *machine) writableScalarCell(sym *sem.Symbol) *cell {
	return &m.writableTargetFrame(sym).scalars[sym.Slot]
}

// arrayCells returns sym's element storage, zero-initializing it if the
// declaration has not executed yet (same lazy-init as the tree-walker:
// installing the array mutates the frame, so a frozen frame is thawed).
func (m *machine) arrayCells(sym *sem.Symbol) []cell {
	fr := m.targetFrame(sym)
	arr := fr.arrays[sym.Slot]
	if arr == nil {
		arr = make([]cell, sym.Size)
		for i := range arr {
			arr[i].def = trace.NoDef
		}
		fr = m.writableTargetFrame(sym)
		fr.arrays[sym.Slot] = arr
		if fr.arrShared != nil {
			fr.arrShared[sym.Slot] = false
		}
	}
	return arr
}

// writableArrayCells returns sym's array storage ready for element
// writes: the frame is thawed and a snapshot-shared array is cloned.
func (m *machine) writableArrayCells(sym *sem.Symbol) []cell {
	arr := m.arrayCells(sym)
	fr := m.writableTargetFrame(sym)
	if fr.arrShared != nil && fr.arrShared[sym.Slot] {
		arr = append([]cell(nil), arr...)
		fr.arrays[sym.Slot] = arr
		fr.arrShared[sym.Slot] = false
	}
	return arr
}
