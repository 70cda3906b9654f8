package trace

// Ancestry is the region forest's interval index, answering ancestor
// queries in O(1). Loop iterations nest (each re-evaluation of a loop
// predicate is a child of the previous one), so the naive parent-chain
// walk is O(iterations); analyses that test many pairs use this index
// instead.
//
// Every trace comes from an interpreter run or a fork of one, and both
// backends emit a preorder walk of the region forest: every region is a
// contiguous interval of trace indices (TestRegionTreeInvariants checks
// this on tree-walker, VM and forked traces). The index is just the
// interval ends, and with Parent they are the whole forest: entry i's
// children are i+1 (when below End(i)) and then, while below End(i),
// each child's End in turn; the roots are 0 and so on by End up to Len.
type Ancestry struct {
	out []int32 // out[i] is one past the last descendant of i
}

// Ancestry returns the interval index Finish built.
func (t *Trace) Ancestry() *Ancestry {
	t.ensureFinished()
	return t.anc
}

// buildAncestry computes the interval ends of every entry. A fork seeds
// its prefix from src's index: a prefix interval wholly inside the cut
// keeps its end; one still open at the cut spans exactly [i, cut) here
// (while open, everything appended is its descendant), so its end clamps
// to the cut and the suffix pass below re-extends the open chain.
func (t *Trace) buildAncestry() *Ancestry {
	n, nb := t.Len(), len(t.base)
	out := make([]int32, n)
	if nb > 0 {
		for i, v := range t.src.anc.out[:nb] {
			out[i] = min(v, int32(nb))
		}
	}

	// Interval pass over the suffix, bottom-up (children precede their
	// parent in the reverse scan, so out[p] accumulates the max over its
	// subtree).
	var ext []int
	for i := n - 1; i >= nb; i-- {
		out[i] = max(out[i], int32(i+1))
		if p := t.At(i).Parent; p >= 0 && out[p] < out[i] {
			if int(p) < nb {
				ext = append(ext, int(p))
			}
			out[p] = out[i]
		}
	}
	// Propagate the extensions up the (prefix) parent chains of the
	// open-at-cut ancestors.
	for _, p := range ext {
		for q := int(t.At(p).Parent); q >= 0 && out[q] < out[p]; q = int(t.At(q).Parent) {
			out[q] = out[p]
			p = q
		}
	}
	return &Ancestry{out: out}
}

// IsAncestor reports whether x is an ancestor of y in the region forest
// (reflexive).
func (a *Ancestry) IsAncestor(x, y int) bool {
	return x <= y && y < int(a.out[x])
}

// End returns one past the last descendant of entry i: i's region
// subtree is exactly the trace indices [i, End(i)).
func (a *Ancestry) End(i int) int { return int(a.out[i]) }
