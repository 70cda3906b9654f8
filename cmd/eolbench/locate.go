package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"eol/internal/backend"
	"eol/internal/confidence"
	"eol/internal/core"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/oracle"
	"eol/internal/trace"
)

// subject is one localization problem in the form eoloc receives it:
// both program versions, the failing input and the root-cause fragment.
type subject struct {
	name string
	// family groups subjects whose localization must give the same
	// digest: a program salted with a trailing comment behaves exactly
	// like the unsalted one.
	family   string
	faulty   string
	correct  string
	input    []int64
	rootFrag string
	// passing are the inputs eoloc -profile would get; nil profiles the
	// correct run instead, as eolcorpus and eolserve do.
	passing [][]int64
}

// job is a subject prepared the way eoloc prepares one before calling
// core.LocateContext: compiled, the correct run done, the value profile
// built and the root statements resolved.
type job struct {
	subject
	prog     *interp.Compiled
	expected []int64
	corTrace *trace.Trace
	profile  *confidence.Profile
	roots    []int
}

// prepare does eoloc's set-up for s on the default backend.
func prepare(s subject) (*job, error) {
	bk := backend.Default()
	faulty, err := interp.Compile(s.faulty)
	if err != nil {
		return nil, fmt.Errorf("%s: faulty: %w", s.name, err)
	}
	correct, err := interp.Compile(s.correct)
	if err != nil {
		return nil, fmt.Errorf("%s: correct: %w", s.name, err)
	}
	cor := bk.Run(correct, interp.Options{Input: s.input, BuildTrace: true})
	if cor.Err != nil {
		return nil, fmt.Errorf("%s: correct run: %w", s.name, cor.Err)
	}
	prof := confidence.NewProfile()
	if s.passing == nil {
		prof.AddTrace(cor.Trace)
	}
	for _, in := range s.passing {
		r := bk.Run(faulty, interp.Options{Input: in, BuildTrace: true})
		if r.Err != nil {
			return nil, fmt.Errorf("%s: profile run: %w", s.name, r.Err)
		}
		prof.AddTrace(r.Trace)
	}
	j := &job{subject: s, prog: faulty, expected: cor.OutputValues(), corTrace: cor.Trace, profile: prof}
	for _, st := range faulty.Info.Stmts {
		if strings.Contains(ast.StmtString(st), s.rootFrag) {
			j.roots = append(j.roots, st.ID())
		}
	}
	if len(j.roots) == 0 {
		return nil, fmt.Errorf("%s: no statement matches root fragment %q", s.name, s.rootFrag)
	}
	return j, nil
}

// prepareAll prepares every subject.
func prepareAll(subjects []subject) ([]*job, error) {
	jobs := make([]*job, len(subjects))
	for i, s := range subjects {
		j, err := prepare(s)
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	return jobs, nil
}

// spec builds the core.Spec eoloc would build: every engine knob at its
// zero value, which is what eoloc's flags default to.
func (j *job) spec(bk interp.Backend) *core.Spec {
	return &core.Spec{
		Program:   j.prog,
		Backend:   bk,
		Input:     j.input,
		Expected:  j.expected,
		RootCause: j.roots,
		Oracle:    &oracle.StateOracle{Correct: j.corTrace},
		Profile:   j.profile,
	}
}

// locate runs one timed localization of spec.
func locate(spec *core.Spec) (time.Duration, *core.Report, error) {
	start := time.Now()
	rep, err := core.LocateContext(context.Background(), spec)
	return time.Since(start), rep, err
}

// checker holds the digest each subject family produced first; every
// later localization of the family must reproduce it. Safe for
// concurrent use.
type checker struct {
	mu   sync.Mutex
	want map[string]uint64
}

func newChecker() *checker { return &checker{want: map[string]uint64{}} }

// observe compares d with the family's first digest, recording it on
// first sight.
func (c *checker) observe(family string, d uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.want[family]
	if !ok {
		c.want[family] = d
		return nil
	}
	if d != w {
		return fmt.Errorf("%s: output digest %016x differs from the first one, %016x", family, d, w)
	}
	return nil
}

// checkReport verifies one localization of j: it completed, located the
// known root statement, and reproduced the family's digest.
func (c *checker) checkReport(j *job, rep *core.Report, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", j.name, err)
	}
	if err := rootLocated(rep, j.roots); err != nil {
		return fmt.Errorf("%s: %w", j.name, err)
	}
	return c.observe(j.family, digestReport(rep))
}

// rootLocated reports whether rep located one of the root statements.
func rootLocated(rep *core.Report, roots []int) error {
	if !rep.Located {
		return core.ErrNotLocated
	}
	stmt := rep.Trace.At(rep.RootEntry).Inst.Stmt
	for _, r := range roots {
		if stmt == r {
			return nil
		}
	}
	return fmt.Errorf("located statement S%d is not a root statement %v", stmt, roots)
}

// digestReport hashes what a localization decides: Located, RootEntry,
// the Table-3 counters, the final candidate entries and the VerifyLog.
// Wall-clock and scheduling-dependent counters are left out, so equal
// digests mean equal answers for any worker count or backend.
func digestReport(rep *core.Report) uint64 {
	var b []byte
	put := func(vs ...int64) {
		for _, v := range vs {
			b = binary.AppendVarint(b, v)
		}
	}
	located := int64(0)
	if rep.Located {
		located = 1
	}
	st := rep.Stats
	put(located, int64(rep.RootEntry), int64(st.UserPrunings), int64(st.Verifications),
		int64(st.Iterations), int64(st.ExpandedEdges), int64(len(rep.IPSEntries)))
	for _, e := range rep.IPSEntries {
		put(int64(e))
	}
	put(int64(len(rep.VerifyLog)))
	for _, e := range rep.VerifyLog {
		perturbed := int64(0)
		if e.Perturbed {
			perturbed = 1
		}
		put(int64(e.Pred.Stmt), int64(e.Pred.Occ), int64(e.Use.Stmt), int64(e.Use.Occ),
			int64(e.Sym), int64(e.Verdict), perturbed, e.Value)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// combinedDigest folds per-family digests, in the given family order,
// into the workload digest compared against the committed seed-1 value.
func (c *checker) combinedDigest(families []string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b []byte
	for _, f := range families {
		b = append(b, f...)
		b = binary.BigEndian.AppendUint64(b, c.want[f])
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// oracleCheck localizes one job per family on the tree-walking
// reference interpreter and compares its digest with the VM's. It is
// untimed: the tree-walker is the differential oracle, not a measured
// path.
func (c *checker) oracleCheck(jobs []*job) error {
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.family] {
			continue
		}
		seen[j.family] = true
		_, rep, err := locate(j.spec(interp.Tree))
		if err != nil {
			return fmt.Errorf("%s on the tree-walker: %w", j.name, err)
		}
		if err := c.observe(j.family, digestReport(rep)); err != nil {
			return fmt.Errorf("tree-walker oracle: %w", err)
		}
	}
	return nil
}

// closedLoop localizes jobs back to back, one client, cycling through
// order, until window has passed and at least one block of
// localizations is done. Each localization is checked untimed; the check counts in
// the window's wall time, as a client's own work would.
func closedLoop(jobs []*job, order []int, window time.Duration, chk *checker, rep *report) (*series, error) {
	s := &series{}
	start := time.Now()
	last := start
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if elapsed >= window && len(s.lat) >= blockSize {
			return s, nil
		}
		if elapsed >= 4*window {
			return nil, fmt.Errorf("only %d localizations in %v, four windows", len(s.lat), elapsed)
		}
		j := jobs[order[i%len(order)]]
		d, r, err := locate(j.spec(backend.Default()))
		rep.op(chk.checkReport(j, r, err))
		now := time.Now()
		s.add(now.Sub(last), d)
		last = now
	}
}
