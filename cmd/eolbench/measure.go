package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer make the tail a single outlier's value.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted and whether
// at least minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], n-1-idx >= minBeyond
}

// durationsMS converts and sorts latencies in milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return ms
}

// timeSetup runs setup reps times and returns the median wall time in
// seconds, so one slow repetition on a shared machine does not move the
// result.
func timeSetup(reps int, setup func() error) (float64, error) {
	var secs []float64
	for range reps {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return medianOf(secs), nil
}

// peakRSSMB reads the peak resident set size (VmHWM) of a process in
// MiB; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in %s", path)
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind the value; 0 for counts and ratios
}

// report is the outcome of one workload run: its metrics plus the
// operation counts and check failures behind the result line.
type report struct {
	workload  string
	attempted int64
	failed    int64
	problems  []string // check failures; any makes the run incorrect
	metrics   []metric
	digest    string // combined output digest of the distinct subjects
}

// add records a metric.
func (r *report) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name, unit, value, n})
}

// problem records a failed check.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation and, when err is non-nil, one
// failure whose cause is kept as a problem.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problem("%v", err)
	}
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// blockSize is the fewest operations in one block of a series: enough
// for a p90 with minBeyond samples beyond it.
const blockSize = 100

// series is the operations of one measured window in completion order:
// every operation's latency, plus the wall time the window spent on each
// stretch of operations (one localization, one corpus.Run, the gap
// between two responses).
type series struct {
	lat   []time.Duration
	ops   []int
	walls []time.Duration
}

// add records a stretch of wall time in which operations with latencies
// lats completed.
func (s *series) add(wall time.Duration, lats ...time.Duration) {
	s.lat = append(s.lat, lats...)
	s.ops = append(s.ops, len(lats))
	s.walls = append(s.walls, wall)
}

// blockStats is the median, over blocks, of each block's rate, p50 and
// p90; ok is false when a block was too small for its p90.
type blockStats struct {
	rate, p50, p90 float64
	ok             bool
}

// blockMedians cuts the series into consecutive blocks of at least
// blockSize operations (a shorter tail joins the block before it) and
// returns the medians over blocks. On a shared machine a neighbour's
// burst of work slows a few seconds of a run; a median over blocks
// ignores those seconds where a statistic of the pooled samples would
// shift with them.
func (s *series) blockMedians() blockStats {
	var cuts []int // the stretch index each block ends before
	ops := 0
	for i, n := range s.ops {
		if ops += n; ops >= blockSize {
			cuts, ops = append(cuts, i+1), 0
		}
	}
	if ops > 0 {
		if len(cuts) > 0 {
			cuts[len(cuts)-1] = len(s.ops)
		} else {
			cuts = append(cuts, len(s.ops))
		}
	}
	st := blockStats{ok: true}
	var rates, p50s, p90s []float64
	stretch, op := 0, 0
	for _, cut := range cuts {
		n := 0
		var wall time.Duration
		for ; stretch < cut; stretch++ {
			n += s.ops[stretch]
			wall += s.walls[stretch]
		}
		ms := durationsMS(s.lat[op : op+n])
		op += n
		p50, _ := percentile(ms, 0.5)
		p90, ok := percentile(ms, 0.9)
		st.ok = st.ok && ok
		rates = append(rates, float64(n)/wall.Seconds())
		p50s, p90s = append(p50s, p50), append(p90s, p90)
	}
	st.rate, st.p50, st.p90 = medianOf(rates), medianOf(p50s), medianOf(p90s)
	return st
}

// medianOf returns the median of vs (0 when empty).
func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// addThroughput records the series' operations per second.
func (r *report) addThroughput(s *series) {
	r.add("throughput_per_s", "1/s", s.blockMedians().rate, len(s.lat))
}

// addLatency records the series' p50 and p90, failing the run when a
// block is too small for its p90.
func (r *report) addLatency(s *series) {
	st := s.blockMedians()
	if !st.ok {
		r.problem("p90_ms: %d samples, too few for a p90 with %d beyond", len(s.lat), minBeyond)
	}
	r.add("p50_ms", "ms", st.p50, len(s.lat))
	r.add("p90_ms", "ms", st.p90, len(s.lat))
}

// resultLine is the machine-readable summary printed last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints one line per metric, the problems, the digest, and the
// JSON result line last.
func (r *report) write(w io.Writer) error {
	line := resultLine{
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]resultValue{},
	}
	for _, m := range r.metrics {
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Fprintf(w, "%-12s %-34s %14.4f %-8s%s\n", r.workload, m.name, m.value, m.unit, n)
		line.Metrics[m.name] = resultValue{Value: m.value, Unit: m.unit}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%-12s CHECK FAILED: %s\n", r.workload, p)
	}
	if r.digest != "" {
		fmt.Fprintf(w, "%-12s digest %s\n", r.workload, r.digest)
	}
	fmt.Fprintf(w, "%-12s attempted %d, failed %d, error_rate %.6f\n", r.workload, r.attempted, r.failed,
		float64(r.failed)/math.Max(1, float64(r.attempted)))
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
