// Benchmarks comparing the two execution backends (docs/VM.md): the
// tree-walking reference interpreter vs the bytecode VM, on identical
// workloads. The results feed BENCH_VM.json via `make bench-vm`
// (cmd/benchvm); the quick view is
//
//	go test -bench=BenchmarkBackend -benchtime 10x .
//
// Checkpointed replay exists on the VM only, so every workload here runs
// with it off on both backends: the ratio is the substrate's.
package eol

import (
	"context"
	"fmt"
	"testing"

	"eol/internal/bench"
	"eol/internal/core"
	"eol/internal/depgraph"
	"eol/internal/implicit"
	"eol/internal/interp"
	"eol/internal/slicing"
	"eol/internal/verifyengine"
	"eol/internal/vm"
)

// grepCorrectLines is the largest ScaledGrepInput size the correct
// grepsim accepts: its match table holds 32 lines, and 150 input lines
// produce exactly 32 matches (larger sizes abort with an out-of-bounds
// store). Benchmarks that compare against the correct output use it.
const grepCorrectLines = 150

// vmBenchBackends pairs each backend with its registry name.
var vmBenchBackends = []struct {
	name string
	bk   interp.Backend
}{
	{"tree", interp.Tree},
	{"vm", vm.Backend},
}

// BenchmarkBackendInterp measures raw substrate speed per backend:
// plain and traced execution of the scaled grep analog.
func BenchmarkBackendInterp(b *testing.B) {
	p := prep(b, "grepsim/V4-F2")
	in := bench.ScaledGrepInput(400)
	for _, be := range vmBenchBackends {
		for _, mode := range []struct {
			name   string
			traced bool
		}{{"plain", false}, {"traced", true}} {
			b.Run(fmt.Sprintf("%s/%s", be.name, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := be.bk.Run(p.Faulty, interp.Options{Input: in, BuildTrace: mode.traced})
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			})
		}
	}
}

// BenchmarkBackendVerifyEngine measures the verification hot path — one
// expand iteration's batch of switched re-executions — per backend on a
// long failing trace (the scaled grep analog, the paper's Table 4
// regime): every switched run replays in full and runs sequentially, so
// the backend is the only variable. Traces are byte-identical across
// backends, so the requests computed from one tree-walker run of the
// scaled input are valid against either backend's own failing run.
func BenchmarkBackendVerifyEngine(b *testing.B) {
	p := prep(b, "grepsim/V4-F2")
	in := bench.ScaledGrepInput(grepCorrectLines)
	run := interp.Run(p.Faulty, interp.Options{Input: in, BuildTrace: true})
	if run.Err != nil {
		b.Fatal(run.Err)
	}
	correct := interp.Run(p.Correct, interp.Options{Input: in})
	if correct.Err != nil {
		b.Fatalf("correct version: %v", correct.Err)
	}
	exp := correct.OutputValues()
	seq, _, ok := slicing.FirstWrongOutput(run.OutputValues(), exp)
	if !ok {
		b.Fatal("scaled input did not expose the fault")
	}
	wrong := *run.Trace.OutputAt(seq)
	cx := slicing.NewContext(p.Faulty, run.Trace)
	g := depgraph.New(run.Trace)
	slice := slicing.Dynamic(g, slicing.FailureSeeds(run.Trace, seq))
	var reqs []implicit.Request
	for _, u := range slice.Ordered() {
		for _, pd := range cx.PotentialDeps(u) {
			reqs = append(reqs, implicit.Request{
				Pred: pd.Pred, Use: u, UseSym: pd.UseSym, UseElem: pd.UseElem,
			})
		}
		if len(reqs) >= 96 {
			break
		}
	}
	if len(reqs) < 2 {
		b.Skip("workload too small")
	}
	for _, be := range vmBenchBackends {
		orig := be.bk.Run(p.Faulty, interp.Options{Input: in, BuildTrace: true})
		if orig.Err != nil {
			b.Fatal(orig.Err)
		}
		b.Run(be.name, func(b *testing.B) {
			b.ReportMetric(float64(len(reqs)), "reqs")
			b.ReportMetric(float64(orig.Trace.Len()), "trace_entries")
			for i := 0; i < b.N; i++ {
				v := &implicit.Verifier{
					C: p.Faulty, Input: in, Orig: orig.Trace, WrongOut: wrong,
					Backend: be.bk,
				}
				if seq < len(exp) {
					v.Vexp, v.HasVexp = exp[seq], true
				}
				e := verifyengine.New(v, verifyengine.Config{Workers: 1, CacheSize: -1})
				if _, err := e.VerifyBatchContext(context.Background(), reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBackendLocate measures the full demand-driven localization
// per backend on every benchmark case, with checkpointed replay off.
func BenchmarkBackendLocate(b *testing.B) {
	for _, name := range allCaseNames() {
		p := prep(b, name)
		for _, be := range vmBenchBackends {
			b.Run(fmt.Sprintf("%s/%s", name, be.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					spec := p.Spec()
					spec.Backend = be.bk
					spec.VerifyWorkers = 1
					spec.VerifyCacheSize = -1
					spec.Disable.Checkpoints = true
					rep, err := core.Locate(spec)
					if err != nil {
						b.Fatal(err)
					}
					if !rep.Located {
						b.Fatalf("%s: not located", name)
					}
				}
			})
		}
	}
}
