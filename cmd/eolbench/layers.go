package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"eol/internal/backend"
	"eol/internal/dataflow"
	"eol/internal/obs"
	"eol/internal/staticdep"
)

// maxKeptSpans bounds the spans kept in memory for -spans output.
const maxKeptSpans = 200_000

// layerStats accumulates the per-layer numbers of the traced pass.
// Times are nanoseconds, summed over the traced localizations.
type layerStats struct {
	traced, untraced []time.Duration

	dur, self map[string]float64
	count     map[string]int
	value     map[string]int64

	batchVMSum, batchVMUnion float64 // vm call time inside verify batches, summed and as a union
	staticdepNS              float64
	maxSelfErr               float64 // worst |Σ self − wall| / wall over the traced localizations
	fallbacks                int64

	st sumStats
	// Deltas over the untraced rounds.
	mallocs, allocBytes, gcCycles, gcPauseNS uint64

	kept []span
}

// sumStats sums the Report.Stats fields the per-layer metrics use.
type sumStats struct {
	repropagated, switchedRuns, staticSkips, staticReachSkips int64
	cacheHits, cacheMisses, alignedRegions, suffixSteps       int64
	checkpointBytes                                           int64
	userPrunings, verifications, expandedEdges                int64
	dirtyFraction                                             float64
}

func (s *sumStats) add(x *obs.Stats) {
	s.repropagated += x.Repropagated
	s.switchedRuns += x.SwitchedRuns
	s.staticSkips += x.StaticSkips
	s.staticReachSkips += x.StaticReachSkips
	s.cacheHits += x.CacheHits
	s.cacheMisses += x.CacheMisses
	s.alignedRegions += x.AlignedRegions
	s.suffixSteps += x.SuffixSteps
	s.checkpointBytes += x.CheckpointBytes
	s.userPrunings += int64(x.UserPrunings)
	s.verifications += int64(x.Verifications)
	s.expandedEdges += int64(x.ExpandedEdges)
	s.dirtyFraction += x.DirtyFraction
}

// addRequest folds one traced localization's spans into the totals.
// spans[0] is the request's root span, whose duration is the traced
// wall time the self times must add up to.
func (l *layerStats) addRequest(spans []span) {
	self := selfTimes(spans)
	var sum float64
	children := map[int][]span{}
	for i, s := range spans {
		sum += self[i]
		l.dur[s.Name] += float64(s.End - s.Start)
		l.self[s.Name] += self[i]
		l.count[s.Name]++
		l.value[s.Name] += s.Value
		if s.Parent >= 0 && spans[s.Parent].Name == "verify_batch" && strings.HasPrefix(s.Name, "vm.") {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, calls := range children {
		for _, c := range calls {
			l.batchVMSum += float64(c.End - c.Start)
		}
		l.batchVMUnion += float64(unionLen(calls))
	}
	wall := float64(spans[0].End - spans[0].Start)
	if e := math.Abs(sum-wall) / wall; e > l.maxSelfErr {
		l.maxSelfErr = e
	}
	if len(l.kept)+len(spans) <= maxKeptSpans {
		l.kept = append(l.kept, spans...)
	}
}

// tracedPass localizes jobs in alternating rounds, untraced and then
// traced, until window has passed, and reports the per-layer metrics.
// Untraced rounds give the allocation and GC numbers and the base for
// the tracing overhead; traced rounds run each localization through the
// tracer's observer and timed backend, and time staticdep.New on the
// same program directly, since Locate builds its SPDG internally.
func tracedPass(jobs []*job, window time.Duration, chk *checker, rep *report, spansFile string) error {
	l := &layerStats{dur: map[string]float64{}, self: map[string]float64{}, count: map[string]int{}, value: map[string]int64{}}
	tr := newTracer()
	traced := timedBackend{Backend: backend.Default(), t: tr}
	flows := map[*job]*dataflow.Analysis{}
	for _, j := range jobs {
		flows[j] = dataflow.New(j.prog.Info, j.prog.CFG)
	}
	req := 0
	start := time.Now()
	for len(l.traced) == 0 || time.Since(start) < window {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, j := range jobs {
			d, r, err := locate(j.spec(backend.Default()))
			rep.op(chk.checkReport(j, r, err))
			l.untraced = append(l.untraced, d)
		}
		runtime.ReadMemStats(&after)
		l.mallocs += after.Mallocs - before.Mallocs
		l.allocBytes += after.TotalAlloc - before.TotalAlloc
		l.gcCycles += uint64(after.NumGC - before.NumGC)
		l.gcPauseNS += after.PauseTotalNs - before.PauseTotalNs

		for _, j := range jobs {
			t0 := time.Now()
			staticdep.New(j.prog, flows[j])
			l.staticdepNS += float64(time.Since(t0))

			spec := j.spec(traced)
			spec.Observer = tr
			req++
			tr.startRequest(req)
			d, r, err := locate(spec)
			spans := tr.finishRequest()
			rep.op(chk.checkReport(j, r, err))
			l.traced = append(l.traced, d)
			l.addRequest(spans)
			if r != nil {
				l.st.add(&r.Stats)
			}
		}
	}
	l.fallbacks = tr.fallbacks.Load()
	if l.maxSelfErr > 0.05 {
		rep.problem("traced self times miss a localization's wall time by %.1f%% (limit 5%%)", 100*l.maxSelfErr)
	}
	l.emit(rep)
	if spansFile == "" {
		return nil
	}
	b, err := json.Marshal(l.kept)
	if err != nil {
		return err
	}
	if err := os.WriteFile(spansFile, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// emit adds the per-layer metrics, each a mean per traced localization
// unless its name says otherwise.
func (l *layerStats) emit(rep *report) {
	n := float64(len(l.traced))
	perMS := func(ns float64) float64 { return ns / n / 1e6 }
	per := func(v float64) float64 { return v / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	tracedMS, untracedMS := durationsMS(l.traced), durationsMS(l.untraced)
	tp50, _ := percentile(tracedMS, 0.5)
	up50, _ := percentile(untracedMS, 0.5)
	nu := float64(len(l.untraced))

	for _, m := range []struct {
		name, unit string
		v          float64
	}{
		{"core.locate_ms", "ms", tp50},
		{"core.locate_self_ms", "ms", perMS(l.self["locate"])},
		{"bench.trace_overhead_ms", "ms", tp50 - up50},
		{"vm.failing_run_ms", "ms", perMS(l.dur["failing_run"])},
		{"vm.failing_run_steps", "count", per(float64(l.value["failing_run"]))},
		{"slicing.ms", "ms", perMS(l.dur["slicing"])},
		{"trace.entries", "count", per(float64(l.value["slicing"]))},
		{"staticdep.build_ms", "ms", perMS(l.staticdepNS)},
		{"confidence.reprune_ms", "ms", perMS(l.dur["reprune"])},
		{"confidence.reprunes", "count", per(float64(l.count["reprune"]))},
		{"confidence.repropagated", "count", per(float64(l.st.repropagated))},
		{"confidence.dirty_fraction", "ratio", per(l.st.dirtyFraction)},
		{"confidence.user_prunings", "count", per(float64(l.st.userPrunings))},
		{"verifyengine.batch_ms", "ms", perMS(l.dur["verify_batch"])},
		{"verifyengine.batch_self_ms", "ms", perMS(l.self["verify_batch"])},
		{"verifyengine.batches", "count", per(float64(l.count["verify_batch"]))},
		{"verifyengine.switched_runs", "count", per(float64(l.st.switchedRuns))},
		{"verifyengine.static_skips", "count", per(float64(l.st.staticSkips))},
		{"verifyengine.static_reach_skips", "count", per(float64(l.st.staticReachSkips))},
		{"verifyengine.exec_overlap", "ratio", ratio(l.batchVMSum, l.batchVMUnion)},
		{"verifyengine.cache_hit_rate", "ratio", ratio(float64(l.st.cacheHits), float64(l.st.cacheHits+l.st.cacheMisses))},
		{"vm.fork_ms", "ms", perMS(l.dur["vm.fork"])},
		{"vm.forks", "count", per(float64(l.count["vm.fork"]))},
		{"vm.fork_fallbacks", "count", per(float64(l.fallbacks))},
		{"vm.full_switched_ms", "ms", perMS(l.dur["vm.full_switched"])},
		{"vm.suffix_steps", "count", per(float64(l.st.suffixSteps))},
		{"vm.checkpoint_bytes", "bytes", per(float64(l.st.checkpointBytes))},
		{"implicit.verifications", "count", per(float64(l.st.verifications))},
		{"implicit.useful_ratio", "ratio", ratio(float64(l.st.expandedEdges), float64(l.st.verifications))},
		{"align.regions", "count", per(float64(l.st.alignedRegions))},
		{"core.alloc_bytes_per_locate", "bytes", float64(l.allocBytes) / nu},
		{"core.allocs_per_locate", "count", float64(l.mallocs) / nu},
		{"go.gc_cycles", "count", float64(l.gcCycles) / nu},
		{"go.gc_pause_ms", "ms", float64(l.gcPauseNS) / nu / 1e6},
	} {
		rep.add(m.name, m.unit, m.v, 0)
	}
}
