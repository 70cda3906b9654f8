package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"eol/internal/api"
	"eol/internal/backend"
	"eol/internal/corpus"
)

// setupReps is how many times each workload repeats its set-up; the
// median is reported, so one slow repetition does not move setup_s.
const setupReps = 9

// config is one run's settings, from the command line.
type config struct {
	seed     int64
	window   time.Duration // the measured window
	trace    bool
	spans    string // with trace: write the traced spans here
	eolserve string // the eolserve binary serve-open starts
}

// workload is one benchmark workload. why is recorded in BENCHMARK.json.
type workload struct {
	name, why string
	run       func(config) (*report, error)
}

var workloads = []workload{
	{"paper9", "the paper's nine Table 2 cases: small traces, where fixed per-Locate costs show", runPaper9},
	{"grep-long", "one long grepsim trace, where re-prune and other work that grows with the trace dominate", runGrepLong},
	{"corpus-mix", "corpus.Run over 96 subjects, half repeats and half new sources, through the shared caches", runCorpusMix},
	{"serve-open", "eolserve over loopback at fixed arrival rates and at capacity: HTTP, admission, warm state", runServeOpen},
}

func runPaper9(cfg config) (*report, error) {
	subjects, err := paperSubjects(true)
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(subjects))
	return runLocates(cfg, "paper9", subjects, order)
}

func runGrepLong(cfg config) (*report, error) {
	s, err := grepSubject(rand.New(rand.NewSource(cfg.seed)), grepLongShape, "grepsim/V4-F2-long", true)
	if err != nil {
		return nil, err
	}
	return runLocates(cfg, "grep-long", []subject{s}, []int{0})
}

// runLocates is the closed-loop core.LocateContext workload behind
// paper9 and grep-long: one client localizing the subjects in order,
// round and round, each call built with eoloc's defaults.
func runLocates(cfg config, name string, subjects []subject, order []int) (*report, error) {
	rep := &report{workload: name}
	chk := newChecker()
	var jobs []*job
	setup, err := timeSetup(setupReps, func() error {
		js, err := prepareAll(subjects)
		if err != nil {
			return err
		}
		for _, j := range js {
			_, r, err := locate(j.spec(backend.Default()))
			if err := chk.checkReport(j, r, err); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		jobs = js
		return nil
	})
	if err != nil {
		return nil, err
	}

	if cfg.trace {
		if err := tracedPass(jobs, cfg.window, chk, rep, cfg.spans); err != nil {
			return nil, err
		}
	} else {
		ops, err := closedLoop(jobs, order, cfg.window, chk, rep)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB(0)
		if err != nil {
			return nil, err
		}
		rep.addThroughput(ops)
		rep.addLatency(ops)
		rep.add("peak_rss_mb", "MB", rss, 0)
		rep.add("setup_s", "s", setup, setupReps)
	}

	if err := chk.oracleCheck(jobs); err != nil {
		rep.problem("%v", err)
	}
	var families []string
	for _, s := range subjects {
		families = append(families, s.family)
	}
	rep.digest = chk.combinedDigest(families)
	return rep, nil
}

// runCorpusMix runs corpus.Run with eolcorpus's defaults over the
// corpus-mix manifest, a fresh run per iteration, for the window.
// Set-up is what eolcorpus does before running: decoding and validating
// the manifest.
func runCorpusMix(cfg config) (*report, error) {
	rep := &report{workload: "corpus-mix"}
	subjects, err := corpusSubjects(cfg.seed)
	if err != nil {
		return nil, err
	}
	var wire api.CorpusRequest
	wire.SchemaVersion = api.SchemaVersion
	family := map[string]string{}
	var distinct []subject
	seenKey := map[string]bool{}
	for _, s := range subjects {
		wire.Subjects = append(wire.Subjects, wireSubject(s))
		family[s.name] = s.family
		if key := s.faulty + "\x00" + fmt.Sprint(s.input); !seenKey[key] {
			seenKey[key] = true
			distinct = append(distinct, s)
		}
	}
	body, err := json.Marshal(&wire)
	if err != nil {
		return nil, err
	}
	var m *corpus.Manifest
	setup, err := timeSetup(setupReps, func() error {
		req, err := api.DecodeCorpusRequest(bytes.NewReader(body))
		if err != nil {
			return err
		}
		m, err = req.Manifest()
		return err
	})
	if err != nil {
		return nil, err
	}

	chk := newChecker()
	checkRun := func(res *corpus.Result) {
		for i := range res.Subjects {
			sr := &res.Subjects[i]
			err := sr.Err
			if err == nil && !sr.Located() {
				err = fmt.Errorf("%s: root cause not located", sr.Name)
			}
			if err == nil {
				err = chk.observe(family[sr.Name], digestReport(sr.Report))
			}
			rep.op(err)
		}
	}
	// One untimed warm-up run lets the runtime size its heap first.
	warm, err := corpus.Run(context.Background(), m, corpus.Options{})
	if err != nil {
		return nil, err
	}
	checkRun(warm)

	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	var ops series
	var wall, busy time.Duration
	var hits, lookups int64
	for wall < window || len(ops.lat) < blockSize {
		start := time.Now()
		res, err := corpus.Run(context.Background(), m, corpus.Options{})
		if err != nil {
			return nil, err
		}
		d := time.Since(start)
		wall += d
		checkRun(res)
		var lat []time.Duration
		for i := range res.Subjects {
			lat = append(lat, res.Subjects[i].Elapsed)
			busy += res.Subjects[i].Elapsed
		}
		ops.add(d, lat...)
		hits += res.Cache.Hits
		lookups += res.Cache.Hits + res.Cache.Misses
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		rep.addThroughput(&ops)
		rep.addLatency(&ops)
		rep.add("peak_rss_mb", "MB", rss, 0)
		rep.add("setup_s", "s", setup, setupReps)
	}
	shards := min(runtime.GOMAXPROCS(0), len(subjects))
	rep.add("corpus.subject_ms_p50", "ms", ops.blockMedians().p50, len(ops.lat))
	rep.add("corpus.shard_busy", "ratio", busy.Seconds()/(float64(shards)*wall.Seconds()), 0)
	rep.add("corpus.run_cache_hit_rate", "ratio", float64(hits)/float64(max(lookups, 1)), 0)
	rep.add("corpus.distinct_share", "ratio", float64(len(distinct))/float64(len(subjects)), 0)

	// The reference interpreter must give one subject of every family the
	// answer the VM gave.
	var oracle corpus.Manifest
	var families []string
	seen := map[string]bool{}
	for _, s := range subjects {
		if !seen[s.family] {
			seen[s.family] = true
			families = append(families, s.family)
			oracle.Subjects = append(oracle.Subjects, wireSubject(s))
		}
	}
	res, err := corpus.Run(context.Background(), &oracle, corpus.Options{Backend: "tree"})
	if err != nil {
		return nil, err
	}
	for i := range res.Subjects {
		if err := chk.observe(families[i], digestReport(res.Subjects[i].Report)); err != nil {
			rep.problem("tree-walker oracle: %v", err)
		}
	}
	rep.digest = chk.combinedDigest(families)

	if cfg.trace {
		jobs, err := prepareAll(distinct)
		if err != nil {
			return nil, err
		}
		if err := tracedPass(jobs, window, chk, rep, cfg.spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
