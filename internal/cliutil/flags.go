package cliutil

import (
	"flag"
	"os"

	"eol/internal/obs"
)

// EngineFlags holds the verification-engine sizing knobs shared by every
// command that runs localizations. The zero values mean "library
// default" and can be passed straight to core.Spec.VerifyWorkers /
// VerifyCacheSize.
type EngineFlags struct {
	// Workers is the verification worker-pool size: 0 = GOMAXPROCS,
	// 1 = the sequential inline path.
	Workers int
	// Cache sizes the switched-run cache: 0 = engine default, negative
	// disables caching.
	Cache int
}

// RegisterEngineFlags registers the unified engine knobs -workers and
// -cache on fs. Removed flags fail like any unknown flag (usage + exit
// code 2 under flag.ExitOnError).
func RegisterEngineFlags(fs *flag.FlagSet) *EngineFlags {
	ef := &EngineFlags{}
	fs.IntVar(&ef.Workers, "workers", 0,
		"verification workers (0 = GOMAXPROCS, 1 = sequential)")
	fs.IntVar(&ef.Cache, "cache", 0,
		"switched-run cache size (0 = default, negative = disabled)")
	return ef
}

// ObsFlags holds the observability knobs shared by every command:
// -trace FILE writes the JSONL run journal, -progress streams
// human-readable phase progress to stderr.
type ObsFlags struct {
	TracePath string
	Progress  bool
}

// RegisterObsFlags registers -trace and -progress on fs.
func RegisterObsFlags(fs *flag.FlagSet) *ObsFlags {
	of := &ObsFlags{}
	fs.StringVar(&of.TracePath, "trace", "",
		"write a JSONL event journal to this `file`")
	fs.BoolVar(&of.Progress, "progress", false,
		"print live phase progress to stderr")
	return of
}

// Observer builds the observer the parsed flags ask for: a JSONL
// journal on TracePath, a progress sink on stderr, both, or nil when
// neither flag was given (the zero-cost path). close flushes and closes
// the journal file and must be called once the run is over, even when
// observer is nil.
func (of *ObsFlags) Observer() (observer obs.Observer, close func() error, err error) {
	close = func() error { return nil }
	var sinks []obs.Observer
	if of.TracePath != "" {
		f, err := os.Create(of.TracePath)
		if err != nil {
			return nil, nil, err
		}
		j := obs.NewJournal(f)
		sinks = append(sinks, j)
		close = func() error {
			ferr := j.Flush()
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
			return ferr
		}
	}
	if of.Progress {
		sinks = append(sinks, obs.NewProgress(os.Stderr))
	}
	return obs.Tee(sinks...), close, nil
}
