package trace

// Ancestry is an ancestor index over the region forest, answering
// ancestor queries in O(1). Loop iterations nest (each re-evaluation of a
// loop predicate is a child of the previous one), so the naive
// parent-chain walk is O(iterations); analyses that test many pairs use
// this index instead.
//
// Interpreter traces are a preorder walk of the region forest — every
// region is a contiguous interval of trace indices — so the common
// representation is just the interval ends (in[i] is the entry index
// itself). Hand-built forests that violate proper nesting fall back to a
// full Euler-tour DFS over the children rows.
type Ancestry struct {
	in  []int // nil in interval mode, where in[i] == i
	out []int
}

// Ancestry builds (or returns the cached) ancestor index. The trace must
// not be appended to afterwards.
func (t *Trace) Ancestry() *Ancestry {
	t.ensureFinished()
	n := t.Len()
	if t.anc != nil && len(t.anc.out) == n {
		return t.anc
	}

	// Forks of a base whose ancestry is already in interval mode
	// seed from it: a prefix interval wholly inside the cut keeps its
	// end; one still open at the cut spans exactly [i, cut) here (while
	// open, everything appended is its descendant), so its end clamps
	// to the cut and the suffix pass below re-extends the open chain.
	// The fork's suffix comes from the interpreter, which emits properly
	// nested regions, so the nesting re-check is not needed.
	if t.baseAnc != nil {
		nb := len(t.base)
		out := make([]int, n)
		copy(out, t.baseAnc.out[:nb])
		for i, v := range out[:nb] {
			if v > nb {
				out[i] = nb
			}
		}
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

	// Interval pass: out[i] is one past the last descendant of i,
	// computed bottom-up (children precede their parent in the reverse
	// scan, so out[p] accumulates the max over its subtree).
	out := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		if out[i] < i+1 {
			out[i] = i + 1
		}
		if p := t.At(i).Parent; p >= 0 && out[p] < out[i] {
			out[p] = out[i]
		}
	}
	// The intervals are the ancestor relation iff the forest is properly
	// nested in trace order: each entry's parent must be the innermost
	// still-open interval. One forward pass with an open-interval stack
	// verifies that; interpreter traces always pass.
	nested := true
	var open []int
	for i := 0; i < n && nested; i++ {
		for len(open) > 0 && out[open[len(open)-1]] == i {
			open = open[:len(open)-1]
		}
		if p := t.At(i).Parent; len(open) == 0 {
			nested = p < 0
		} else {
			nested = p == open[len(open)-1]
		}
		open = append(open, i)
	}
	if nested {
		t.anc = &Ancestry{out: out}
		return t.anc
	}

	// General forest: Euler-tour DFS over the children rows.
	a := &Ancestry{in: make([]int, n), out: out}
	clock := 0
	type item struct {
		idx   int
		child int
	}
	var stack []item
	push := func(i int) {
		a.in[i] = clock
		clock++
		stack = append(stack, item{idx: i})
	}
	for _, r := range t.Roots() {
		push(r)
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			kids := t.Children(top.idx)
			if top.child < len(kids) {
				c := kids[top.child]
				top.child++
				push(c)
				continue
			}
			a.out[top.idx] = clock
			clock++
			stack = stack[:len(stack)-1]
		}
	}
	t.anc = a
	return a
}

// IsAncestor reports whether x is an ancestor of y in the region forest
// (reflexive).
func (a *Ancestry) IsAncestor(x, y int) bool {
	if a.in == nil {
		return x <= y && y < a.out[x]
	}
	return a.in[x] <= a.in[y] && a.out[y] <= a.out[x]
}
