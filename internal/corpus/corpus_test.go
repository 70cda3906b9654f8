package corpus

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"eol/internal/bench"
	"eol/internal/core"
	"eol/internal/interp"
	"eol/internal/obs"
)

// benchManifest builds an in-memory manifest from the nine benchmark
// cases: each subject gets the faulty source, the correct version as
// the oracle, and the known root fragment.
func benchManifest(t *testing.T) *Manifest {
	t.Helper()
	m := &Manifest{}
	for _, c := range bench.Cases() {
		faulty, err := c.FaultySrc()
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		m.Subjects = append(m.Subjects, Subject{
			Name:          c.Name(),
			Source:        faulty,
			CorrectSource: c.CorrectSrc,
			Input:         c.FailingInput,
			RootFrag:      c.RootFrag,
		})
	}
	if len(m.Subjects) < 8 {
		t.Fatalf("bench suite has %d cases, want >= 8 for the shard A/B", len(m.Subjects))
	}
	return m
}

// deterministicView strips the scheduling-dependent fields from a
// result, leaving exactly what the shard-count contract promises.
type deterministicView struct {
	Name          string
	Located       bool
	Class         string
	UserPrunings  int
	Verifications int
	Iterations    int
	ExpandedEdges int
	StrongEdges   int
	ImplicitEdges int
	IPSStatic     int
	IPSDynamic    int
}

func viewOf(res *Result) []deterministicView {
	views := make([]deterministicView, len(res.Subjects))
	for i := range res.Subjects {
		sr := &res.Subjects[i]
		v := deterministicView{Name: sr.Name, Located: sr.Located(), Class: sr.Class}
		if rep := sr.Report; rep != nil {
			v.UserPrunings = rep.Stats.UserPrunings
			v.Verifications = rep.Stats.Verifications
			v.Iterations = rep.Stats.Iterations
			v.ExpandedEdges = rep.Stats.ExpandedEdges
			v.StrongEdges = rep.Stats.StrongEdges
			v.ImplicitEdges = rep.Stats.ImplicitEdges
			v.IPSStatic = rep.IPS.Static
			v.IPSDynamic = rep.IPS.Dynamic
		}
		views[i] = v
	}
	return views
}

// TestShardCountInvariance is the A/B acceptance check: localizing the
// nine-subject bench manifest with 1 shard and with 4 shards must yield
// identical per-subject results, totals, and journals.
func TestShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full bench corpus in -short mode")
	}
	m := benchManifest(t)

	run := func(shards int) (*Result, []obs.Event) {
		mem := &obs.Memory{}
		res, err := Run(context.Background(), m, Options{
			Shards:        shards,
			VerifyWorkers: 1,
			Observer:      mem,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res, mem.Events()
	}

	res1, j1 := run(1)
	res4, j4 := run(4)

	if got, want := viewOf(res4), viewOf(res1); !reflect.DeepEqual(got, want) {
		t.Errorf("per-subject results differ between 1 and 4 shards:\n1: %+v\n4: %+v", want, got)
	}
	if res1.Located != res4.Located || res1.Failed != res4.Failed {
		t.Errorf("totals differ: shards=1 located=%d failed=%d, shards=4 located=%d failed=%d",
			res1.Located, res1.Failed, res4.Located, res4.Failed)
	}
	if !reflect.DeepEqual(j1, j4) {
		t.Errorf("journals differ between 1 and 4 shards (%d vs %d events)", len(j1), len(j4))
	}
	if res1.Located == 0 {
		t.Errorf("no subject located its root cause; the corpus run is vacuous")
	}
	// Every bench subject is expected to locate.
	for _, v := range viewOf(res1) {
		if !v.Located {
			t.Errorf("%s: not located (class %q)", v.Name, v.Class)
		}
	}
}

// TestSharedCacheAcrossSubjects runs the same subject several times in
// one corpus: with a shared cache the later sessions reuse the first
// session's switched runs; with caching off (CacheSize < 0) no session
// reuses anything, and results do not change.
func TestSharedCacheAcrossSubjects(t *testing.T) {
	cases := bench.Cases()
	faulty, err := cases[0].FaultySrc()
	if err != nil {
		t.Fatal(err)
	}
	m := &Manifest{}
	for i := 0; i < 3; i++ {
		m.Subjects = append(m.Subjects, Subject{
			Name:          cases[0].Name() + "-" + string(rune('a'+i)),
			Source:        faulty,
			CorrectSource: cases[0].CorrectSrc,
			Input:         cases[0].FailingInput,
			RootFrag:      cases[0].RootFrag,
		})
	}

	shared, err := Run(context.Background(), m, Options{Shards: 1, VerifyWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !shared.SharedCache {
		t.Fatal("expected a shared cache by default")
	}
	if shared.Cache.Hits == 0 {
		t.Errorf("identical subjects produced no shared-cache hits: %+v", shared.Cache)
	}

	uncached, err := Run(context.Background(), m, Options{Shards: 1, VerifyWorkers: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if uncached.SharedCache {
		t.Errorf("CacheSize -1 run reported a shared cache")
	}
	for _, sr := range uncached.Subjects {
		if st := sr.Report.Stats; st.CacheHits != 0 {
			t.Errorf("%s: %d cache hits with caching off", sr.Name, st.CacheHits)
		}
	}
	// Sharing must not change results.
	if !reflect.DeepEqual(viewOf(shared), viewOf(uncached)) {
		t.Errorf("shared vs no cache changed results:\nshared:   %+v\nuncached: %+v",
			viewOf(shared), viewOf(uncached))
	}
}

// TestSubjectDeadline gives a long-running subject a tiny deadline: the
// subject must fail with class "deadline", an error matching
// interp.ErrDeadline, and a non-nil partial report, without affecting
// its siblings.
func TestSubjectDeadline(t *testing.T) {
	slow := `
func main() {
    var x = read();
    var i = 0;
    while (i < 100000000) {
        i = i + 1;
    }
    print(x);
}
`
	cases := bench.Cases()
	faulty, err := cases[0].FaultySrc()
	if err != nil {
		t.Fatal(err)
	}
	m := &Manifest{Subjects: []Subject{
		{Name: "slow", Source: slow, Input: []int64{1}, Expected: []int64{2},
			Deadline: Duration(5 * time.Millisecond)},
		{Name: "ok", Source: faulty, CorrectSource: cases[0].CorrectSrc,
			Input: cases[0].FailingInput, RootFrag: cases[0].RootFrag},
	}}
	res, err := Run(context.Background(), m, Options{Shards: 2, VerifyWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	slowRes, okRes := &res.Subjects[0], &res.Subjects[1]
	if slowRes.Class != "deadline" {
		t.Fatalf("slow subject class = %q (err %v), want deadline", slowRes.Class, slowRes.Err)
	}
	if !errors.Is(slowRes.Err, interp.ErrDeadline) {
		t.Errorf("slow subject error %v does not match interp.ErrDeadline", slowRes.Err)
	}
	if slowRes.Report == nil {
		t.Error("slow subject has no partial report")
	}
	if !okRes.Located() {
		t.Errorf("sibling subject failed: class %q err %v", okRes.Class, okRes.Err)
	}
	if res.Failed != 1 || res.Located != 1 {
		t.Errorf("totals: located=%d failed=%d, want 1/1", res.Located, res.Failed)
	}
}

// TestNotLocatedClass runs a subject whose root fragment names a
// statement the locator cannot reach as a candidate, and expects the
// not_located failure class.
func TestNotLocatedClass(t *testing.T) {
	src := `
func main() {
    var a = read();
    var dead = 7;
    print(a + 1);
}
`
	m := &Manifest{Subjects: []Subject{{
		Name: "never", Source: src, Input: []int64{1}, Expected: []int64{3},
		RootFrag: "var dead",
	}}}
	res, err := Run(context.Background(), m, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sr := &res.Subjects[0]
	if sr.Class != "not_located" || !errors.Is(sr.Err, core.ErrNotLocated) {
		t.Fatalf("class = %q err = %v, want not_located", sr.Class, sr.Err)
	}
}

// TestFailFast checks that the first failure cancels the rest of the
// corpus when FailFast is set.
func TestFailFast(t *testing.T) {
	slow := `
func main() {
    var x = read();
    var i = 0;
    while (i < 100000000) {
        i = i + 1;
    }
    print(x);
}
`
	m := &Manifest{Subjects: []Subject{
		{Name: "fails", Source: "func main() { print(read()); }", Input: []int64{1},
			Expected: []int64{2}, RootFrag: "no-such-fragment"},
		{Name: "slow", Source: slow, Input: []int64{1}, Expected: []int64{2}},
	}}
	res, err := Run(context.Background(), m, Options{Shards: 1, FailFast: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subjects[0].Err == nil {
		t.Fatal("first subject should fail (bad root fragment)")
	}
	if res.Subjects[1].Class != "canceled" {
		t.Fatalf("second subject class = %q (err %v), want canceled via fail-fast",
			res.Subjects[1].Class, res.Subjects[1].Err)
	}
}

// TestManifestLoad exercises file resolution, duration parsing, default
// folding and validation.
func TestManifestLoad(t *testing.T) {
	dir := t.TempDir()
	prog := "func main() { print(read()); }"
	if err := os.WriteFile(filepath.Join(dir, "p.mc"), []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := `{
  "defaults": {"deadline": "2s", "max_iterations": 7},
  "subjects": [
    {"file": "p.mc", "input": [1], "expected": [2]},
    {"name": "b", "source": "func main() { print(read()); }", "input": [1],
     "expected": [2], "deadline": "10ms"}
  ]
}`
	path := filepath.Join(dir, "m.json")
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a, b := &m.Subjects[0], &m.Subjects[1]
	if a.Source != prog {
		t.Errorf("file not resolved: %q", a.Source)
	}
	if a.Name != "p.mc" {
		t.Errorf("default name = %q, want p.mc", a.Name)
	}
	if a.Deadline.D() != 2*time.Second || a.MaxIterations != 7 {
		t.Errorf("defaults not folded: deadline=%v iters=%d", a.Deadline.D(), a.MaxIterations)
	}
	if b.Deadline.D() != 10*time.Millisecond {
		t.Errorf("subject deadline = %v, want 10ms", b.Deadline.D())
	}

	for name, bad := range map[string]string{
		"no subjects":   `{"subjects": []}`,
		"no program":    `{"subjects": [{"input": [1], "expected": [2]}]}`,
		"no expected":   `{"subjects": [{"source": "func main() {}"}]}`,
		"unknown field": `{"subjects": [{"source": "x", "expected": [1], "wat": 3}]}`,
		"dup names":     `{"subjects": [{"name":"x","source":"s","expected":[1]},{"name":"x","source":"s","expected":[1]}]}`,
	} {
		p := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(p, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(p); err == nil {
			t.Errorf("%s: Load accepted an invalid manifest", name)
		}
	}
}

// TestCorpusContextCancel cancels the whole corpus up front: every
// subject reports canceled and Run still returns a complete result.
func TestCorpusContextCancel(t *testing.T) {
	m := benchManifest(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, m, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Subjects {
		if res.Subjects[i].Class != "canceled" {
			t.Fatalf("%s: class %q, want canceled", res.Subjects[i].Name, res.Subjects[i].Class)
		}
	}
	if res.Failed != len(m.Subjects) {
		t.Errorf("Failed = %d, want %d", res.Failed, len(m.Subjects))
	}
}
