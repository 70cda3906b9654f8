// Command eolcorpus runs a corpus of localization subjects — a JSON
// manifest of (faulty program, failing input, expected output) triples —
// concurrently over a sharded session pool, and reports one JSON
// document with a per-subject result row plus corpus totals.
//
// Usage:
//
//	eolcorpus [flags] manifest.json
//
//	-shards N       concurrent localization sessions (0 = GOMAXPROCS)
//	-deadline D     default per-subject wall-clock bound, Go duration
//	                syntax; a subject's own "deadline" overrides it
//	-fail-fast      cancel remaining subjects after the first failure
//	-workers N      verification workers per session (0 = GOMAXPROCS)
//	-cache N        shared switched-run cache size (negative = off)
//	-timing         include wall-clock / shard / cache fields, which
//	                vary run to run (default output is deterministic)
//	-o FILE         write the JSON result there instead of stdout
//	-trace FILE     write the deterministic JSONL corpus journal
//	-progress       print live progress to stderr
//
// The JSON result is the versioned wire document of internal/api
// (api.CorpusReport, schema_version 1) — byte-identical to what an
// eolserve instance responds with for the same subjects. The default
// output and the -trace journal carry only scheduling-independent
// fields and are byte-identical for any -shards value (see
// docs/CORPUS.md and docs/SERVER.md). Exit status: 0 when every subject
// completed, 1 when any subject failed (deadline, budget, compile
// error, root cause not located), 2 for command-line misuse.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"

	"eol/internal/api"
	"eol/internal/cliutil"
	"eol/internal/corpus"
)

func main() {
	shardsFlag := flag.Int("shards", 0, "concurrent localization sessions (0 = GOMAXPROCS)")
	deadlineFlag := flag.Duration("deadline", 0, "default per-subject wall-clock bound (e.g. 30s; 0 = none)")
	failFastFlag := flag.Bool("fail-fast", false, "cancel remaining subjects after the first failure")
	timingFlag := flag.Bool("timing", false, "include scheduling-dependent fields (timings, shards, cache counters)")
	outFlag := flag.String("o", "", "write the JSON result to this `file` instead of stdout")
	engFlags := cliutil.RegisterEngineFlags(flag.CommandLine)
	obsFlags := cliutil.RegisterObsFlags(flag.CommandLine)
	flag.Parse()

	if flag.NArg() != 1 {
		cliutil.Usagef("usage: eolcorpus [flags] manifest.json (see -h)")
	}

	m, err := corpus.Load(flag.Arg(0))
	if err != nil {
		cliutil.Fatalf("eolcorpus: %v", err)
	}

	observer, closeObs, err := obsFlags.Observer()
	if err != nil {
		cliutil.Fatalf("eolcorpus: %v", err)
	}

	res, err := corpus.Run(context.Background(), m, corpus.Options{
		Shards:        *shardsFlag,
		Deadline:      *deadlineFlag,
		FailFast:      *failFastFlag,
		VerifyWorkers: engFlags.Workers,
		CacheSize:     engFlags.Cache,
		Observer:      observer,
	})
	if cerr := closeObs(); cerr != nil {
		cliutil.Fatalf("eolcorpus: closing -trace journal: %v", cerr)
	}
	if err != nil {
		cliutil.Fatalf("eolcorpus: %v", err)
	}

	out := api.NewCorpusReport(res, *timingFlag, *shardsFlag)

	var buf bytes.Buffer
	if err := api.Encode(&buf, out); err != nil {
		cliutil.Fatalf("eolcorpus: %v", err)
	}
	if *outFlag != "" {
		if err := os.WriteFile(*outFlag, buf.Bytes(), 0o644); err != nil {
			cliutil.Fatalf("eolcorpus: %v", err)
		}
	} else {
		os.Stdout.Write(buf.Bytes())
	}

	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "eolcorpus: %d of %d subjects failed\n", res.Failed, out.Total)
		os.Exit(1)
	}
}
