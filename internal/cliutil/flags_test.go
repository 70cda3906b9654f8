package cliutil

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eol/internal/obs"
)

func TestEngineFlagsCanonicalNames(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ef := RegisterEngineFlags(fs)
	if err := fs.Parse([]string{"-workers", "4", "-cache", "-1"}); err != nil {
		t.Fatal(err)
	}
	if ef.Workers != 4 || ef.Cache != -1 {
		t.Errorf("got workers=%d cache=%d, want 4 -1", ef.Workers, ef.Cache)
	}
}

// TestEngineFlagsRemovedAliases: the pre-unification spellings
// -verify-workers/-verify-cache finished their deprecation cycle and,
// like the removed -speculate, -no-static-reach, -checkpoints and
// -backend, now fail as any unknown flag. Under the commands'
// flag.ExitOnError sets that means usage output and exit code 2; with
// ContinueOnError here it surfaces as a Parse error naming the flag.
func TestEngineFlagsRemovedAliases(t *testing.T) {
	for _, alias := range []string{"verify-workers", "verify-cache", "speculate", "no-static-reach", "checkpoints", "backend"} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		var buf bytes.Buffer
		fs.SetOutput(&buf)
		RegisterEngineFlags(fs)
		err := fs.Parse([]string{"-" + alias, "2"})
		if err == nil {
			t.Fatalf("-%s still parses; the removed alias must be an unknown flag", alias)
		}
		if !strings.Contains(err.Error(), alias) {
			t.Errorf("-%s error does not name the flag: %v", alias, err)
		}
	}
}

// TestEngineFlagsNoWarningForCanonical: the canonical spellings parse
// silently.
func TestEngineFlagsNoWarningForCanonical(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	ef := RegisterEngineFlags(fs)
	if err := fs.Parse([]string{"-workers", "2", "-cache", "64"}); err != nil {
		t.Fatal(err)
	}
	if ef.Workers != 2 || ef.Cache != 64 {
		t.Errorf("got workers=%d cache=%d, want 2 64", ef.Workers, ef.Cache)
	}
	if buf.Len() != 0 {
		t.Errorf("canonical flags produced output: %q", buf.String())
	}
}

func TestUsageHidesAliases(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	RegisterEngineFlags(fs)
	RegisterObsFlags(fs)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.Usage()
	out := buf.String()
	for _, want := range []string{"-workers", "-cache", "-trace", "-progress"} {
		if !strings.Contains(out, want) {
			t.Errorf("usage does not advertise %s:\n%s", want, out)
		}
	}
	for _, gone := range []string{"verify-workers", "verify-cache", "speculate", "no-static-reach", "checkpoints", "backend"} {
		if strings.Contains(out, gone) {
			t.Errorf("usage still mentions removed alias %s:\n%s", gone, out)
		}
	}
}

func TestObsFlagsObserverNil(t *testing.T) {
	of := &ObsFlags{}
	o, close, err := of.Observer()
	if err != nil {
		t.Fatal(err)
	}
	if o != nil {
		t.Errorf("no flags set: observer = %v, want nil", o)
	}
	if err := close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

func TestObsFlagsObserverJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	of := &ObsFlags{TracePath: path}
	o, close, err := of.Observer()
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(o)
	rec.Begin("locate")
	rec.Count("switched_runs", 3)
	rec.End("locate", 1)
	if err := close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.ValidateJournal(f); err != nil {
		t.Errorf("journal written through ObsFlags is invalid: %v", err)
	}
}
