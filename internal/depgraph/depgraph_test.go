package depgraph

import (
	"math/rand"
	"slices"
	"testing"

	"eol/internal/trace"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(10)
	if s.Len() != 0 || s.Has(3) {
		t.Fatal("fresh set not empty")
	}
	if !s.Add(3) || s.Add(3) {
		t.Fatal("Add newness reporting broken")
	}
	if s.Add(-1) {
		t.Fatal("negative Add accepted")
	}
	s.Add(200) // beyond initial capacity: auto-grow
	if !s.Has(200) || s.Has(-5) || s.Has(1000) {
		t.Fatal("Has broken")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if got := s.Ordered(); len(got) != 2 || got[0] != 3 || got[1] != 200 {
		t.Fatalf("Ordered = %v", got)
	}
	c := s.Clone()
	c.Add(4)
	if s.Has(4) || c.Len() != 3 {
		t.Fatal("Clone not independent")
	}
	var nilSet *Set
	if nilSet.Has(0) || nilSet.Len() != 0 || nilSet.Ordered() != nil {
		t.Fatal("nil Set accessors broken")
	}
}

// randomDAGTrace builds a trace whose entries use random earlier defs and
// random region parents — a dense, adversarial DAG for closure tests.
func randomDAGTrace(rng *rand.Rand, n int) *trace.Trace {
	tr := trace.New()
	for i := 0; i < n; i++ {
		e := trace.Entry{Inst: trace.Instance{Stmt: 1 + rng.Intn(8), Occ: i}, Parent: -1}
		if i > 0 && rng.Intn(3) > 0 {
			e.Parent = int32(rng.Intn(i))
		}
		tr.Append(e)
		for k := rng.Intn(3); k > 0 && i > 0; k-- {
			tr.AddUse(i, trace.UseRec{Sym: int32(k), Elem: trace.ScalarElem, Def: int32(rng.Intn(i))})
		}
	}
	return tr
}

// TestExtendMatchesFromScratch: growing a closure edge-by-edge must land
// on the same set as recomputing it over the final graph — the invariant
// incremental re-pruning rests on.
func TestExtendMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 30; round++ {
		n := 20 + rng.Intn(60)
		tr := randomDAGTrace(rng, n)
		g := New(tr)
		seed := n - 1
		inc := g.BackwardSlice(Explicit|Implicit, seed)
		dist := g.Distances(Explicit|Implicit, seed)

		// Add random overlay edges one at a time, maintaining both the
		// closure and the distances incrementally.
		for k := 0; k < 10; k++ {
			from := 1 + rng.Intn(n-1)
			to := rng.Intn(from)
			if !g.AddEdge(from, to, Implicit) {
				continue
			}
			if inc.Has(from) {
				g.Extend(inc, Explicit|Implicit, to)
			}
			g.Relax(dist, Explicit|Implicit, from, to)
		}

		full := g.BackwardSlice(Explicit|Implicit, seed)
		fullDist := g.Distances(Explicit|Implicit, seed)
		if got, want := inc.Ordered(), full.Ordered(); len(got) != len(want) {
			t.Fatalf("round %d: incremental slice %v != full %v", round, got, want)
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("round %d: incremental slice %v != full %v", round, got, want)
				}
			}
		}
		for i := range fullDist {
			if dist[i] != fullDist[i] {
				t.Fatalf("round %d: dist[%d] = %d, full recompute %d", round, i, dist[i], fullDist[i])
			}
		}
	}
}

// TestEachConsumerReversesDeps: the forward index lists exactly the
// reversed data and overlay dependences of the selected kinds — data
// uses in entry order with the symbol read, then overlay edges in
// insertion order — including edges added after the index was built.
func TestEachConsumerReversesDeps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, kinds = 40, Data | Implicit
	for round := 0; round < 10; round++ {
		tr := randomDAGTrace(rng, n)
		g := New(tr)
		overlay := make([][]Consumer, n) // the Implicit arcs into each entry, in insertion order
		for pass := 0; pass < 2; pass++ {
			// The second pass adds edges after the index exists.
			for k := 0; k < 8; k++ {
				from := 1 + rng.Intn(n-1)
				to, kind := rng.Intn(from), []Kind{Implicit, Potential}[rng.Intn(2)]
				if g.AddEdge(from, to, kind) && kind == Implicit {
					overlay[to] = append(overlay[to], Consumer{Entry: from, Kind: Implicit, Sym: -1})
				}
			}
			want := make([][]Consumer, n)
			for i := 0; i < n; i++ {
				for _, u := range tr.Uses(i) {
					if u.Def >= 0 {
						want[u.Def] = append(want[u.Def], Consumer{Entry: i, Kind: Data, Sym: int(u.Sym)})
					}
				}
			}
			for d := 0; d < n; d++ {
				var got []Consumer
				g.EachConsumer(d, kinds, func(c Consumer) { got = append(got, c) })
				if w := append(want[d], overlay[d]...); !slices.Equal(got, w) {
					t.Fatalf("round %d pass %d: consumers of %d = %v, want %v", round, pass, d, got, w)
				}
			}
		}
	}
}

func TestEngineStats(t *testing.T) {
	tr := randomDAGTrace(rand.New(rand.NewSource(3)), 30)
	g := New(tr)
	st := g.EngineStats()
	if st.Nodes != 30 || st.BaseEdges == 0 || st.OverlayEdges != 0 {
		t.Fatalf("stats = %+v", st)
	}
	g.AddEdge(29, 0, StrongImplicit)
	if got := g.EngineStats().OverlayEdges; got != 1 {
		t.Fatalf("overlay edges = %d, want 1", got)
	}
}
