package trace

import (
	"bytes"
	"reflect"
	"testing"

	"eol/internal/cfg"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	orig := New()
	orig.Append(Entry{Inst: Instance{Stmt: 1, Occ: 1}, Parent: -1, Value: 7, Branch: cfg.True})
	orig.Append(Entry{
		Inst: Instance{Stmt: 2, Occ: 1}, Parent: 0,
		Uses: []UseRec{{Sym: 3, Elem: ScalarElem, Def: 0, Val: 7}},
		Defs: []DefRec{{Sym: 4, Elem: ScalarElem}},
	})
	orig.Append(Entry{Inst: Instance{Stmt: 2, Occ: 2}, Parent: 0, Switched: true})
	orig.Outputs = append(orig.Outputs, Output{Seq: 0, Entry: 1, Arg: 0, Value: 42})

	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got.entries, orig.entries) {
		t.Errorf("entries differ:\n%v\n%v", got.entries, orig.entries)
	}
	if !reflect.DeepEqual(got.Outputs, orig.Outputs) {
		t.Errorf("outputs differ")
	}
	// Derived indices rebuilt.
	if got.FindInstance(Instance{Stmt: 2, Occ: 2}) != 2 {
		t.Error("instance index not rebuilt")
	}
	if kids := got.Children(0); len(kids) != 2 {
		t.Errorf("children not rebuilt: %v", kids)
	}
	if !got.Ancestry().IsAncestor(0, 2) {
		t.Error("ancestry not working after decode")
	}
}

func TestDecodeRejectsCorruptParent(t *testing.T) {
	cases := []struct {
		name    string
		entries []Entry
	}{
		{"forward parent", []Entry{{Inst: Instance{Stmt: 1, Occ: 1}, Parent: 5}}},
		{"negative statement", []Entry{{Inst: Instance{Stmt: -1, Occ: 1}, Parent: -1}}},
		{"repeated occurrence", []Entry{
			{Inst: Instance{Stmt: 1, Occ: 1}, Parent: -1},
			{Inst: Instance{Stmt: 1, Occ: 1}, Parent: -1},
		}},
		{"skipped occurrence", []Entry{
			{Inst: Instance{Stmt: 1, Occ: 1}, Parent: -1},
			{Inst: Instance{Stmt: 1, Occ: 3}, Parent: -1},
		}},
	}
	for _, c := range cases {
		bad := New()
		bad.entries = c.entries
		var buf bytes.Buffer
		if err := bad.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(&buf); err == nil {
			t.Errorf("%s must be rejected", c.name)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Error("garbage must not decode")
	}
}
