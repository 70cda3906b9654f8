// Command eolbench is the repository's end-to-end benchmark. It times
// the locator from outside, through public entry points called with
// the command-line tools' default settings — core.LocateContext as
// eoloc calls it, corpus.Run as eolcorpus calls it, and an eolserve
// process reached over loopback — checks every output, and prints each
// metric by name with its unit and sample count, then one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (run.sh builds eolbench and eolserve
// from the checkout first):
//
//	bash cmd/eolbench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE]
//
// -workload picks one of paper9, grep-long, corpus-mix and serve-open;
// "all" runs each in its own child process, so peak memory is per
// workload. -trace 0 reports the end-to-end metrics; -trace 1 instead
// runs a traced pass and reports the per-layer metrics, and -spans
// writes that pass's spans as JSON. The exit status is 1 when any
// output check fails. See README.md.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports for every workload.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a -trace 1 run reports for every workload; a
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"core.locate_ms", "ms"},
	{"core.locate_self_ms", "ms"},
	{"bench.trace_overhead_ms", "ms"},
	{"vm.failing_run_ms", "ms"},
	{"vm.failing_run_steps", "count"},
	{"slicing.ms", "ms"},
	{"trace.entries", "count"},
	{"staticdep.build_ms", "ms"},
	{"confidence.reprune_ms", "ms"},
	{"confidence.reprunes", "count"},
	{"confidence.repropagated", "count"},
	{"confidence.dirty_fraction", "ratio"},
	{"confidence.user_prunings", "count"},
	{"verifyengine.batch_ms", "ms"},
	{"verifyengine.batch_self_ms", "ms"},
	{"verifyengine.batches", "count"},
	{"verifyengine.switched_runs", "count"},
	{"verifyengine.static_skips", "count"},
	{"verifyengine.static_reach_skips", "count"},
	{"verifyengine.exec_overlap", "ratio"},
	{"verifyengine.cache_hit_rate", "ratio"},
	{"vm.fork_ms", "ms"},
	{"vm.forks", "count"},
	{"vm.fork_fallbacks", "count"},
	{"vm.full_switched_ms", "ms"},
	{"vm.suffix_steps", "count"},
	{"vm.checkpoint_bytes", "bytes"},
	{"implicit.verifications", "count"},
	{"implicit.useful_ratio", "ratio"},
	{"align.regions", "count"},
	{"core.alloc_bytes_per_locate", "bytes"},
	{"core.allocs_per_locate", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"corpus.subject_ms_p50", "ms"},
	{"corpus.shard_busy", "ratio"},
	{"corpus.run_cache_hit_rate", "ratio"},
	{"corpus.distinct_share", "ratio"},
	{"serve.admitted", "count"},
	{"serve.rejected_queue", "count"},
	{"serve.compiled_programs", "count"},
	{"serve.cache_hit_rate", "ratio"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.sent_per_s", "1/s"},
	{"loadgen.p50_ms_r100", "ms"},
	{"loadgen.p90_ms_r100", "ms"},
}

// baselineJSON holds the committed seed-1 output digests.
//
//go:embed baseline.json
var baselineJSON []byte

type baseline struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func main() {
	name := flag.String("workload", "all", "workload to run: paper9, grep-long, corpus-mix, serve-open or all")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics instead")
	spans := flag.String("spans", "", "with -trace 1, write the traced spans as JSON to this `file`")
	eolserve := flag.String("eolserve", ".bench_build/eolserve", "eolserve `binary` for serve-open")
	flag.Parse()
	if flag.NArg() != 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: eolbench [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE]")
		os.Exit(2)
	}
	cfg := config{
		seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1,
		spans: *spans, eolserve: *eolserve,
	}
	if *name == "all" {
		os.Exit(runAll(cfg))
	}
	for _, w := range workloads {
		if w.name == *name {
			os.Exit(runOne(w, cfg))
		}
	}
	fmt.Fprintf(os.Stderr, "eolbench: unknown workload %q\n", *name)
	os.Exit(2)
}

// runOne runs workload w, prints its report and returns the exit status.
func runOne(w workload, cfg config) int {
	fmt.Printf("eolbench workload=%s seed=%d seconds=%g trace=%v go=%s gomaxprocs=%d nproc=%d\n",
		w.name, cfg.seed, cfg.window.Seconds(), cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eolbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rep.keep(defs)
	checkBaseline(rep, cfg.seed)
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "eolbench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// keep reorders the metrics to defs, dropping others and reading a
// missing one as 0 with defs' unit.
func (r *report) keep(defs []metricDef) {
	have := map[string]metric{}
	for _, m := range r.metrics {
		have[m.name] = m
	}
	r.metrics = r.metrics[:0]
	for _, d := range defs {
		m, ok := have[d.name]
		if !ok {
			m = metric{name: d.name}
		}
		m.unit = d.unit
		r.metrics = append(r.metrics, m)
	}
}

// checkBaseline compares the run's output digest with the committed one
// when the seed is the baseline seed.
func checkBaseline(rep *report, seed int64) {
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		rep.problem("baseline.json: %v", err)
		return
	}
	want, ok := b.Digests[rep.workload]
	if seed != b.Seed || !ok {
		return
	}
	if rep.digest != want {
		rep.problem("seed-%d output digest %s differs from the committed %s", seed, rep.digest, want)
	}
}

// runAll runs every workload in its own child process and prints a
// combined JSON line whose metric names carry the workload as prefix.
func runAll(cfg config) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "eolbench: %v\n", err)
		return 1
	}
	total := resultLine{Correct: true, Metrics: map[string]resultValue{}}
	status := 0
	for _, w := range workloads {
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.Itoa(int(cfg.window.Seconds())), "-trace", trace, "-eolserve", cfg.eolserve}
		if cfg.spans != "" {
			args = append(args, "-spans", strings.TrimSuffix(cfg.spans, ".json")+"-"+w.name+".json")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintf(os.Stderr, "eolbench: %v\n", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "eolbench: %v\n", err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			fmt.Println(sc.Text())
			last = sc.Text()
		}
		if err := cmd.Wait(); err != nil {
			status = 1
		}
		var line resultLine
		if err := json.Unmarshal([]byte(last), &line); err != nil {
			fmt.Fprintf(os.Stderr, "eolbench: %s printed no result line\n", w.name)
			total.Correct, status = false, 1
			continue
		}
		total.Correct = total.Correct && line.Correct
		total.Attempted += line.Attempted
		total.Failed += line.Failed
		for k, v := range line.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eolbench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	return status
}
