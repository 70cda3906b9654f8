package core_test

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"eol/internal/bench"
	"eol/internal/core"
	"eol/internal/interp"
	"eol/internal/slicing"
)

// reportDigest hashes what a localization decides: the verdict, the
// Table-3 and skip counters, the final candidates and the VerifyLog.
func reportDigest(rep *core.Report) uint64 {
	h := fnv.New64a()
	st := rep.Stats
	fmt.Fprintf(h, "%v %d %d %d %d %d %d %d %d %d %v %v", rep.Located, rep.RootEntry,
		st.UserPrunings, st.Verifications, st.Iterations, st.ExpandedEdges,
		st.StrongEdges, st.ImplicitEdges, st.SwitchedRuns, st.StaticSkips,
		rep.IPSEntries, rep.VerifyLog)
	return h.Sum64()
}

// TestSharedProgramConcurrentLocate localizes one *interp.Compiled from
// four goroutines at once, so they share its cached dataflow analysis,
// built by whichever Locate asks first. Each report must equal a
// sequential localization of a separate compile of the same source. The
// race lane runs this test repeatedly (make race). sedsim/V3-F3 is the
// subject because the replay filter, which reads the shared analysis,
// skips runs there.
func TestSharedProgramConcurrentLocate(t *testing.T) {
	p, err := bench.ByName("sedsim/V3-F3").Prepare()
	if err != nil {
		t.Fatal(err)
	}
	src, err := p.Case.FaultySrc()
	if err != nil {
		t.Fatal(err)
	}
	compile := func() *interp.Compiled {
		c, err := interp.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	spec := func(c *interp.Compiled) *core.Spec {
		s := p.Spec()
		s.Program = c
		s.VerifyWorkers = 1
		return s
	}

	want, err := core.Locate(spec(compile()))
	if err != nil {
		t.Fatal(err)
	}
	if !want.Located || want.Stats.StaticSkips == 0 {
		t.Fatalf("subject changed: located=%v with %d static skips; want a located fault and skips",
			want.Located, want.Stats.StaticSkips)
	}

	shared := compile()
	specs := make([]*core.Spec, 4)
	for i := range specs {
		specs[i] = spec(shared)
	}
	reps := make([]*core.Report, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func(i int, s *core.Spec) {
			defer wg.Done()
			reps[i], errs[i] = core.Locate(s)
		}(i, s)
	}
	wg.Wait()
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if got, w := reportDigest(rep), reportDigest(want); got != w {
			t.Errorf("goroutine %d: report digest %016x, sequential %016x", i, got, w)
			assertSameOutcome(t, fmt.Sprintf("goroutine %d", i), want, rep)
		}
	}

	t1, t2 := reps[0].Trace, reps[1].Trace
	if t1 == t2 {
		t.Fatal("two Locates returned one trace")
	}
	if a, b := slicing.NewContext(shared, t1).Flow, slicing.NewContext(shared, t2).Flow; a != b {
		t.Error("two traces of one program got different dataflow analyses")
	}
}
