package depgraph

import (
	"strings"
	"testing"
)

func TestWriteDOT(t *testing.T) {
	g := New(chainTrace())
	g.AddEdge(2, 0, StrongImplicit)
	var sb strings.Builder
	hl := NewSet(3)
	hl.Add(2)
	err := g.WriteDOT(&sb, DOTOptions{Highlight: hl})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"digraph ddg {",
		`n1 -> n0 [style=solid, label="dd"]`,
		`n2 -> n1 [style=dashed, label="cd"]`,
		`label="sid"`,
		"fillcolor",
		"}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDOTSubset(t *testing.T) {
	g := New(chainTrace())
	var sb strings.Builder
	only := NewSet(3)
	only.Add(1)
	only.Add(2)
	err := g.WriteDOT(&sb, DOTOptions{Only: only})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "n0 [") {
		t.Error("excluded node rendered")
	}
	if strings.Contains(out, "-> n0") {
		t.Error("edge to excluded node rendered")
	}
	if !strings.Contains(out, "n2 -> n1") {
		t.Error("included edge missing")
	}
}

func TestWriteDOTKindFilter(t *testing.T) {
	g := New(chainTrace())
	var sb strings.Builder
	if err := g.WriteDOT(&sb, DOTOptions{Kinds: Control}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, `label="dd"`) {
		t.Error("data edge rendered despite Control-only filter")
	}
	if !strings.Contains(out, `label="cd"`) {
		t.Error("control edge missing")
	}
}

func TestWriteDOTCustomLabel(t *testing.T) {
	g := New(chainTrace())
	var sb strings.Builder
	err := g.WriteDOT(&sb, DOTOptions{Label: func(i int) string { return "entry" }})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `label="entry"`) {
		t.Error("custom label not used")
	}
}
