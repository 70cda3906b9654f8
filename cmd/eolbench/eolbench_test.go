package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"eol/internal/bench"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true},
		{99, 0.90, 90, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1000, 0.99, 990, true},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(samples(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

// A synthetic request: two phases under the root, the second holding two
// overlapping backend calls, as parallel verification workers make them.
func TestSelfTimesSumToRootDuration(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "slicing", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "verify_batch", Start: 50, End: 90},
		{ID: 3, Parent: 2, Name: "vm.fork", Start: 55, End: 80},
		{ID: 4, Parent: 2, Name: "vm.fork", Start: 60, End: 85},
	}
	self := selfTimes(spans)
	want := []float64{30, 30, 10, 15, 15}
	sum := 0.0
	for i := range self {
		if math.Abs(self[i]-want[i]) > 1e-9 {
			t.Errorf("self[%s #%d] = %g, want %g", spans[i].Name, i, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != 100 {
		t.Errorf("self times sum to %g, want the root's 100", sum)
	}
	if got := unionLen(spans[3:]); got != 30 {
		t.Errorf("union of the two calls = %d, want 30", got)
	}
}

// The validity guard rejects bench.ScaledGrepInput at 200 and 400 lines:
// they hold more than 32 matching lines, so the correct grepsim aborts
// with matches[32] out of bounds.
func TestGrepGuardRejectsOverflowingInputs(t *testing.T) {
	_, faulty, correct, err := grepPrograms()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{200, 400} {
		err := validGrepInput(faulty, correct, bench.ScaledGrepInput(n))
		if err == nil {
			t.Errorf("ScaledGrepInput(%d) passed the guard", n)
		} else {
			t.Logf("ScaledGrepInput(%d): %v", n, err)
		}
	}
	if err := validGrepInput(faulty, correct, bench.ScaledGrepInput(20)); err != nil {
		t.Errorf("ScaledGrepInput(20) rejected: %v", err)
	}
	in := grepInput(rand.New(rand.NewSource(1)), grepLongShape)
	if err := validGrepInput(faulty, correct, in); err != nil {
		t.Errorf("grep-long input rejected: %v", err)
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	grep := func(seed int64) subject {
		s, err := grepSubject(rand.New(rand.NewSource(seed)), grepLongShape, "g", true)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	corpusOf := func(seed int64) []subject {
		ss, err := corpusSubjects(seed)
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	paper, err := paperSubjects(false)
	if err != nil {
		t.Fatal(err)
	}
	serveOf := func(seed int64) []subject {
		m := &serveMix{seed: seed, paper: paper}
		var ss []subject
		for i := range 200 {
			ss = append(ss, m.subject(i))
		}
		return ss
	}
	if !reflect.DeepEqual(grep(7), grep(7)) || reflect.DeepEqual(grep(7).input, grep(8).input) {
		t.Error("grep-long input: same seed must repeat, another seed must differ")
	}
	if len(grep(7).input) != len(grep(8).input) {
		t.Error("grep-long input: the shape must not depend on the seed")
	}
	if !reflect.DeepEqual(corpusOf(7), corpusOf(7)) || reflect.DeepEqual(corpusOf(7), corpusOf(8)) {
		t.Error("corpus-mix manifest: same seed must repeat, another seed must differ")
	}
	if !reflect.DeepEqual(serveOf(7), serveOf(7)) || reflect.DeepEqual(serveOf(7), serveOf(8)) {
		t.Error("serve-open mix: same seed must repeat, another seed must differ")
	}

	ss := corpusOf(3)
	count := map[string]int{}
	for _, s := range ss {
		count[s.faulty+"\x00"+s.correct+"\x00"+string(mustJSON(t, s.input))]++
	}
	if len(ss) != 96 || len(count) != 48 {
		t.Errorf("corpus-mix: %d subjects, %d distinct; want 96 and 48", len(ss), len(count))
	}
	for _, n := range count {
		if n != 2 {
			t.Errorf("corpus-mix: a distinct subject appears %d times, want 2", n)
		}
	}
	salted := 0
	for _, s := range serveOf(3) {
		if s.name != s.family {
			salted++
		}
	}
	if salted < 10 || salted > 30 {
		t.Errorf("serve-open: %d of 200 requests salted, want about 10%%", salted)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json at the repository root must describe this program.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%d metrics in BENCHMARK.json, %d in the program", len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

// raceDetector is set when the tests run under -race.
var raceDetector bool

// TestSmoke runs every workload with two-second windows, untraced and
// traced, on seed 1, and checks that each run is correct, reports every
// metric, and reproduces the committed seed-1 digest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "eolserve")
	if out, err := exec.Command("go", "build", "-o", bin, "eol/cmd/eolserve").CombinedOutput(); err != nil {
		t.Fatalf("building eolserve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if raceDetector && w.name == "grep-long" && !traced {
				// The race detector makes 100 long localizations take
				// minutes; the traced run still covers this workload.
				continue
			}
			cfg := config{seed: 1, window: 2 * time.Second, trace: traced, eolserve: bin}
			start := time.Now()
			rep, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			rep.keep(defs)
			checkBaseline(rep, cfg.seed)
			t.Logf("%s (trace %v): %d operations in %v, digest %s", w.name, traced, rep.attempted, time.Since(start), rep.digest)
			if !rep.correct() || rep.attempted == 0 {
				t.Errorf("%s (trace %v): attempted %d, failed %d, problems %v", w.name, traced, rep.attempted, rep.failed, rep.problems)
			}
			for _, m := range rep.metrics {
				if !traced && m.value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, m.name, m.value)
				}
			}
			if traced {
				for _, name := range []string{"core.locate_ms", "confidence.reprune_ms", "verifyengine.switched_runs", "trace.entries"} {
					if v := valueOf(rep, name); v <= 0 {
						t.Errorf("%s: traced metric %s = %g, want > 0", w.name, name, v)
					}
				}
			}
		}
	}
}

func valueOf(rep *report, name string) float64 {
	for _, m := range rep.metrics {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}
