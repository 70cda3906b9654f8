package trace

// Ancestry is an ancestor index over the region forest, answering
// ancestor queries in O(1). Loop iterations nest (each re-evaluation of a
// loop predicate is a child of the previous one), so the naive
// parent-chain walk is O(iterations); analyses that test many pairs use
// this index instead.
//
// Every trace comes from an interpreter run or a fork of one, and both
// backends emit a preorder walk of the region forest: every region is a
// contiguous interval of trace indices (TestRegionTreeInvariants checks
// this on tree-walker, VM and forked traces). The index is just the
// interval ends.
type Ancestry struct {
	out []int // out[i] is one past the last descendant of i
}

// Ancestry builds (or returns the cached) ancestor index. The trace must
// not be appended to afterwards.
func (t *Trace) Ancestry() *Ancestry {
	t.ensureFinished()
	n := t.Len()
	if t.anc != nil && len(t.anc.out) == n {
		return t.anc
	}
	out := make([]int, n)

	// Forks of a base whose ancestry is already built seed from it: a
	// prefix interval wholly inside the cut keeps its end; one still
	// open at the cut spans exactly [i, cut) here (while open,
	// everything appended is its descendant), so its end clamps to the
	// cut and the suffix pass below re-extends the open chain.
	nb := 0
	if t.baseAnc != nil {
		nb = len(t.base)
		for i, v := range t.baseAnc.out[:nb] {
			out[i] = min(v, nb)
		}
	}

	// Interval pass over the entries not seeded, bottom-up (children
	// precede their parent in the reverse scan, so out[p] accumulates
	// the max over its subtree).
	var ext []int
	for i := n - 1; i >= nb; i-- {
		if out[i] < i+1 {
			out[i] = i + 1
		}
		if p := t.At(i).Parent; p >= 0 && out[p] < out[i] {
			if p < nb {
				ext = append(ext, p)
			}
			out[p] = out[i]
		}
	}
	// Propagate the extensions up the (prefix) parent chains of the
	// open-at-cut ancestors.
	for _, p := range ext {
		for q := t.At(p).Parent; q >= 0 && out[q] < out[p]; q = t.At(q).Parent {
			out[q] = out[p]
			p = q
		}
	}
	t.anc = &Ancestry{out: out}
	return t.anc
}

// IsAncestor reports whether x is an ancestor of y in the region forest
// (reflexive).
func (a *Ancestry) IsAncestor(x, y int) bool {
	return x <= y && y < a.out[x]
}

// End returns one past the last descendant of entry i: i's region
// subtree is exactly the trace indices [i, End(i)).
func (a *Ancestry) End(i int) int { return a.out[i] }
