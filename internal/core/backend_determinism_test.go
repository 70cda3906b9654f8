package core_test

// Backend A/B coverage: Locate driven by the bytecode VM must be
// observationally identical to Locate driven by the tree-walking
// reference interpreter — verdict, Table 3 counters, VerifyLog, IPS
// ranking, and the byte-level obs journal — across worker, cache,
// static-skip, and checkpoint configurations. This is the acceptance
// contract that lets the VM be the default backend while the tree
// walker stays the differential oracle.

import (
	"bytes"
	"testing"

	"eol/internal/bench"
	"eol/internal/interp"
	"eol/internal/vm"
)

// backendConfigs is the engine configuration matrix the A/B comparison
// sweeps. noCkpt turns checkpointing off entirely.
var backendConfigs = []struct {
	label            string
	workers, cacheSz int
	noSkip           bool
	noCkpt           bool
}{
	{"workers=1/nocache", 1, -1, false, false},
	{"workers=1/nocache/noskip", 1, -1, true, false},
	{"workers=1/nocache/nockpt", 1, -1, false, true},
	{"workers=8/nocache", 8, -1, false, false},
	{"workers=8/cache", 8, 0, false, false},
}

// TestBackendDeterminismFig1: tree vs VM on the Figure 1 problem, with
// journal byte-comparison, across the configuration matrix.
func TestBackendDeterminismFig1(t *testing.T) {
	for _, cfg := range backendConfigs {
		treeSpec := fig1DetSpec(t)
		treeSpec.Backend = interp.Tree
		treeSpec.VerifyWorkers, treeSpec.VerifyCacheSize = cfg.workers, cfg.cacheSz
		treeSpec.Disable.StaticSkip, treeSpec.Disable.Checkpoints = cfg.noSkip, cfg.noCkpt

		vmSpec := fig1DetSpec(t)
		vmSpec.Backend = vm.Backend
		vmSpec.VerifyWorkers, vmSpec.VerifyCacheSize = cfg.workers, cfg.cacheSz
		vmSpec.Disable.StaticSkip, vmSpec.Disable.Checkpoints = cfg.noSkip, cfg.noCkpt

		treeRep, treeJournal := locateJournaled(t, treeSpec)
		vmRep, vmJournal := locateJournaled(t, vmSpec)
		if !treeRep.Located {
			t.Fatalf("%s: tree baseline did not locate", cfg.label)
		}
		assertSameOutcome(t, cfg.label+"/tree-vs-vm", treeRep, vmRep)
		if !bytes.Equal(treeJournal, vmJournal) {
			t.Errorf("%s: journal bytes diverged between backends", cfg.label)
		}
	}
}

// TestBackendDeterminismSed: the same A/B on a sed simulator case — the
// largest traces and verification batches in the suite — once with the
// sequential baseline and once with the full engine (workers + cache).
func TestBackendDeterminismSed(t *testing.T) {
	c := bench.ByName("sedsim/V3-F2")
	if c == nil {
		t.Fatal("unknown case sedsim/V3-F2")
	}
	p, err := c.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct {
		label            string
		workers, cacheSz int
	}{
		{"workers=1/nocache", 1, -1},
		{"workers=8/cache", 8, 0},
	} {
		treeSpec := p.Spec()
		treeSpec.Backend = interp.Tree
		treeSpec.VerifyWorkers, treeSpec.VerifyCacheSize = cfg.workers, cfg.cacheSz

		vmSpec := p.Spec()
		vmSpec.Backend = vm.Backend
		vmSpec.VerifyWorkers, vmSpec.VerifyCacheSize = cfg.workers, cfg.cacheSz

		treeRep, treeJournal := locateJournaled(t, treeSpec)
		vmRep, vmJournal := locateJournaled(t, vmSpec)
		if !treeRep.Located {
			t.Fatalf("%s: tree baseline did not locate", cfg.label)
		}
		assertSameOutcome(t, cfg.label+"/tree-vs-vm", treeRep, vmRep)
		if !bytes.Equal(treeJournal, vmJournal) {
			t.Errorf("%s: journal bytes diverged between backends", cfg.label)
		}
	}
}
