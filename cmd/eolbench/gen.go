package main

import (
	"fmt"
	"math/rand"
	"slices"

	"eol/internal/backend"
	"eol/internal/bench"
	"eol/internal/interp"
)

// The generators below make every workload input from the seed. A seed
// changes the content of the inputs (letters, salts, order), not their
// shape (line counts, where the matches fall), so runs with different
// seeds do the same amount of work and their spread measures noise.

// paperSubject is bench case c as a subject. With eolocProfile the
// case's passing inputs become the value profile, as `eoloc -profile`
// would get them; otherwise the correct run profiles, as in eolcorpus.
func paperSubject(c *bench.Case, eolocProfile bool) (subject, error) {
	faulty, err := c.FaultySrc()
	if err != nil {
		return subject{}, err
	}
	s := subject{
		name: c.Name(), family: c.Name(),
		faulty: faulty, correct: c.CorrectSrc,
		input: c.FailingInput, rootFrag: c.RootFrag,
	}
	if eolocProfile {
		s.passing = c.PassingInputs
	}
	return s, nil
}

// paperSubjects returns the nine bench cases in Table 2 order.
func paperSubjects(eolocProfile bool) ([]subject, error) {
	var ss []subject
	for _, c := range bench.Cases() {
		s, err := paperSubject(c, eolocProfile)
		if err != nil {
			return nil, err
		}
		ss = append(ss, s)
	}
	return ss, nil
}

// salted returns s with a trailing comment added to both versions: the
// programs behave identically, but every content key (compile cache,
// SPDG cache, switched-run cache) is new.
func salted(s subject, salt string) subject {
	tail := "\n// salt " + salt + "\n"
	s.faulty += tail
	s.correct += tail
	s.name += "+salt" + salt
	return s
}

// grepShape fixes the structure of a generated grepsim input.
type grepShape struct {
	lines   int // input lines
	lineLen int // bytes per line
	step    int // every step-th line holds a match, starting at line 1
}

// grepInput draws a grepsim input of the given shape: a three-byte
// pattern x.y and lines of random letters other than x. Matching lines
// hold x?y at a fixed offset; the first match and every even-numbered
// one after it match only through the wildcard, which the V4-F2 fault
// misses, and the rest contain x.y literally. Only the letters depend on
// r, so the trace length is the same for every seed.
func grepInput(r *rand.Rand, sh grepShape) []int64 {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	x := letters[r.Intn(len(letters))]
	y := letters[r.Intn(len(letters))]
	var filler []byte
	for i := 0; i < len(letters); i++ {
		if letters[i] != x {
			filler = append(filler, letters[i])
		}
	}
	in := bench.Line(string([]byte{x, '.', y}))
	for i := 0; i < sh.lines; i++ {
		b := make([]byte, sh.lineLen)
		for k := range b {
			b[k] = filler[r.Intn(len(filler))]
		}
		if i%sh.step == 1 {
			p := (i * 3) % (sh.lineLen - 2)
			b[p], b[p+2] = x, y
			if m := i / sh.step; m > 0 && m%2 == 1 {
				b[p+1] = '.'
			}
		}
		in = bench.Cat(in, bench.Line(string(b)))
	}
	return in
}

// grepPrograms compiles both grepsim versions of case V4-F2.
func grepPrograms() (c *bench.Case, faulty, correct *interp.Compiled, err error) {
	c = bench.ByName("grepsim/V4-F2")
	if c == nil {
		return nil, nil, nil, fmt.Errorf("bench case grepsim/V4-F2 not found")
	}
	src, err := c.FaultySrc()
	if err != nil {
		return nil, nil, nil, err
	}
	if faulty, err = interp.Compile(src); err != nil {
		return nil, nil, nil, err
	}
	if correct, err = interp.Compile(c.CorrectSrc); err != nil {
		return nil, nil, nil, err
	}
	return c, faulty, correct, nil
}

// validGrepInput is the validity guard: both versions must run without
// error and their outputs must differ, or there is no failure to locate.
// The correct grepsim holds at most 32 matches, so a long input with many
// matching lines aborts it with an out-of-bounds index.
func validGrepInput(faulty, correct *interp.Compiled, in []int64) error {
	bk := backend.Default()
	f := bk.Run(faulty, interp.Options{Input: in})
	if f.Err != nil {
		return fmt.Errorf("faulty version: %w", f.Err)
	}
	c := bk.Run(correct, interp.Options{Input: in})
	if c.Err != nil {
		return fmt.Errorf("correct version: %w", c.Err)
	}
	if slices.Equal(f.OutputValues(), c.OutputValues()) {
		return fmt.Errorf("outputs agree, nothing to locate")
	}
	return nil
}

// grepSubject draws a valid grepsim V4-F2 subject of the given shape,
// redrawing any input the guard rejects.
func grepSubject(r *rand.Rand, sh grepShape, name string, eolocProfile bool) (subject, error) {
	c, faulty, correct, err := grepPrograms()
	if err != nil {
		return subject{}, err
	}
	s, err := paperSubject(c, eolocProfile)
	if err != nil {
		return subject{}, err
	}
	s.name, s.family = name, name
	for range 100 {
		s.input = grepInput(r, sh)
		if validGrepInput(faulty, correct, s.input) == nil {
			return s, nil
		}
	}
	return subject{}, fmt.Errorf("%s: no valid grepsim input of shape %+v in 100 draws", name, sh)
}

// grepLongShape is the grep-long input: 16 lines of 10 bytes with four
// matches, 2.4k trace entries, 7 to 40 times a paper case's trace.
var grepLongShape = grepShape{lines: 16, lineLen: 10, step: 4}

// corpusGrepShapes are the fresh grepsim inputs of corpus-mix, small
// enough that one corpus.Run stays well under a second.
var corpusGrepShapes = []grepShape{
	{6, 8, 3}, {8, 8, 3}, {10, 8, 4}, {12, 8, 4},
	{6, 8, 3}, {8, 8, 3}, {10, 8, 4}, {12, 8, 4},
	{6, 8, 3}, {8, 8, 3}, {10, 8, 4}, {12, 8, 4},
}

// corpusSubjects builds the corpus-mix manifest subjects: 48 distinct
// ones (each bench case salted four ways, plus twelve fresh grepsim
// inputs), each appearing twice, in a seeded order. Half the subjects
// are thus exact repeats of an earlier one, and every distinct one has
// content keys no other subject shares.
func corpusSubjects(seed int64) ([]subject, error) {
	r := rand.New(rand.NewSource(seed))
	paper, err := paperSubjects(false)
	if err != nil {
		return nil, err
	}
	var distinct []subject
	for _, p := range paper {
		for k := range 4 {
			distinct = append(distinct, salted(p, fmt.Sprintf("%d.%d", seed, k)))
		}
	}
	for k, sh := range corpusGrepShapes {
		s, err := grepSubject(r, sh, fmt.Sprintf("grep-%02d", k), false)
		if err != nil {
			return nil, err
		}
		distinct = append(distinct, s)
	}
	all := append(slices.Clone(distinct), distinct...)
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for i := range all {
		all[i].name = fmt.Sprintf("%02d-%s", i, all[i].name)
	}
	return all, nil
}

// splitmix64 is a cheap, well-mixed hash of (seed, i), so request i of
// the serve mix can be drawn by any client goroutine independently.
func splitmix64(seed int64, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// serveMix draws the serve-open requests: 90% one of the nine bench
// cases as is (warm on the server after set-up), 10% a bench case
// salted with a comment unique to (seed, i), whose compile, SPDG and
// switched runs are new to the server and grow its caches.
type serveMix struct {
	seed  int64
	paper []subject
}

// subject returns request i of the mix.
func (m *serveMix) subject(i int) subject {
	h := splitmix64(m.seed, i)
	if h%10 == 0 {
		return salted(m.warm(i), fmt.Sprintf("%d.%d", m.seed, i))
	}
	return m.warm(i)
}

// warm returns request i of the mix with the salt left out: always one
// of the nine subjects the server has warm.
func (m *serveMix) warm(i int) subject {
	return m.paper[(splitmix64(m.seed, i)>>8)%uint64(len(m.paper))]
}
