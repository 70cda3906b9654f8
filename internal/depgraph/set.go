package depgraph

import "math/bits"

// Set is a bitset over trace entry indices: membership is one bit,
// iteration is ascending entry order (= execution order, the order
// Ordered returns), and closure extension can reuse the same storage
// across incremental passes.
type Set struct {
	words []uint64
	count int
}

// NewSet returns an empty set sized for entries [0, n).
func NewSet(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+63)/64)}
}

// Reset empties the set, keeping its storage for reuse.
func (s *Set) Reset() {
	clear(s.words)
	s.count = 0
}

// grow ensures the backing array covers bit i.
func (s *Set) grow(i int) {
	w := i >> 6
	for w >= len(s.words) {
		s.words = append(s.words, 0)
	}
}

// Add inserts i and reports whether it was newly added. Negative indices
// are ignored (the old map-based API guarded seeds the same way).
func (s *Set) Add(i int) bool {
	if i < 0 {
		return false
	}
	s.grow(i)
	w, b := i>>6, uint64(1)<<(i&63)
	if s.words[w]&b != 0 {
		return false
	}
	s.words[w] |= b
	s.count++
	return true
}

// Has reports membership of i.
func (s *Set) Has(i int) bool {
	if s == nil || i < 0 {
		return false
	}
	w := i >> 6
	if w >= len(s.words) {
		return false
	}
	return s.words[w]&(1<<(i&63)) != 0
}

// Len returns the number of members.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return s.count
}

// ForEach calls f for every member in ascending order.
func (s *Set) ForEach(f func(i int)) {
	if s == nil {
		return
	}
	for w, word := range s.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			f(w<<6 + b)
			word &= word - 1
		}
	}
}

// Ordered returns the members in ascending (execution) order.
func (s *Set) Ordered() []int {
	if s == nil {
		return nil
	}
	res := make([]int, 0, s.count)
	s.ForEach(func(i int) { res = append(res, i) })
	return res
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), count: s.count}
	copy(c.words, s.words)
	return c
}
