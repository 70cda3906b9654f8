package trace

import (
	"encoding/gob"
	"fmt"
	"io"
)

// wireTrace is the serialized form: entries and outputs only — the
// derived indices (children rows, instance rows, ancestry) are rebuilt
// on decode.
type wireTrace struct {
	Entries []Entry
	Outputs []Output
}

// Encode writes the trace in gob format. The paper's prototype persisted
// dependence graphs between the online (valgrind) and offline (debugging)
// components; Encode/Decode play that role here, letting traces be
// captured once and analyzed by separate processes.
func (t *Trace) Encode(w io.Writer) error {
	entries := make([]Entry, 0, t.Len())
	entries = append(entries, t.base...)
	entries = append(entries, t.entries...)
	return gob.NewEncoder(w).Encode(wireTrace{Entries: entries, Outputs: t.Outputs})
}

// Decode reads a trace written by Encode and rebuilds all derived
// indices. The bytes come from outside the program, so Decode checks
// what the indices rely on and returns an error instead of building a
// trace that would answer queries wrongly: every parent precedes its
// child, statement IDs are non-negative, and each statement's
// occurrences are numbered 1, 2, ... in entry order.
func Decode(r io.Reader) (*Trace, error) {
	var wt wireTrace
	if err := gob.NewDecoder(r).Decode(&wt); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	t := New()
	occ := map[int]int{}
	for i, e := range wt.Entries {
		if e.Parent >= i {
			return nil, fmt.Errorf("trace: decode: entry %d has forward parent %d", i, e.Parent)
		}
		if e.Inst.Stmt < 0 {
			return nil, fmt.Errorf("trace: decode: entry %d has negative statement %d", i, e.Inst.Stmt)
		}
		if want := occ[e.Inst.Stmt] + 1; e.Inst.Occ != want {
			return nil, fmt.Errorf("trace: decode: entry %d is %v, want occurrence %d", i, e.Inst, want)
		}
		occ[e.Inst.Stmt]++
		t.Append(e)
	}
	t.Outputs = wt.Outputs
	t.Finish()
	return t, nil
}
