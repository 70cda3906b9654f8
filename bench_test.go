// Benchmarks regenerating the paper's evaluation tables as testing.B
// targets. Each table has a dedicated benchmark family; run them all
// with:
//
//	go test -bench=. -benchmem
//
// Table 4 is special: its Plain/Graph/Verification columns literally are
// the BenchmarkTable4* measurements (ns/op of the three execution modes).
package eol

import (
	"context"
	"fmt"
	"io"
	"testing"

	"eol/internal/backend"
	"eol/internal/bench"
	"eol/internal/cfg"
	"eol/internal/confidence"
	"eol/internal/core"
	"eol/internal/critpred"
	"eol/internal/depgraph"
	"eol/internal/harness"
	"eol/internal/implicit"
	"eol/internal/interp"
	"eol/internal/obs"
	"eol/internal/slicing"
	"eol/internal/trace"
	"eol/internal/verifyengine"
	"eol/internal/vm"
)

// prepared caches benchmark-case preparation across benchmarks.
var prepared = map[string]*bench.Prepared{}

func prep(tb testing.TB, name string) *bench.Prepared {
	tb.Helper()
	if p, ok := prepared[name]; ok {
		return p
	}
	c := bench.ByName(name)
	if c == nil {
		tb.Fatalf("unknown case %s", name)
	}
	p, err := c.Prepare()
	if err != nil {
		tb.Fatal(err)
	}
	prepared[name] = p
	return p
}

func allCaseNames() []string {
	var names []string
	for _, c := range bench.Cases() {
		names = append(names, c.Name())
	}
	return names
}

// BenchmarkTable1Characteristics times the benchmark-inventory pass.
func BenchmarkTable1Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.Table1()
		if len(rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable2Slicing regenerates Table 2: per case, the classic
// dynamic slice (DS) and the relevant slice (RS) of the wrong output.
func BenchmarkTable2Slicing(b *testing.B) {
	for _, name := range allCaseNames() {
		p := prep(b, name)
		seq, _, ok := slicing.FirstWrongOutput(p.Run.OutputValues(), p.Expected)
		if !ok {
			b.Fatal("no failure")
		}
		seed := slicing.FailureSeeds(p.Run.Trace, seq)

		b.Run(name+"/DS", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := depgraph.New(p.Run.Trace)
				if slicing.Dynamic(g, seed).Len() == 0 {
					b.Fatal("empty slice")
				}
			}
		})
		b.Run(name+"/RS", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cx := slicing.NewContext(p.Faulty, p.Run.Trace)
				g := depgraph.New(p.Run.Trace)
				if cx.Relevant(g, seed).Len() == 0 {
					b.Fatal("empty slice")
				}
			}
		})
		b.Run(name+"/PS", func(b *testing.B) {
			var correct []trace.Output
			for i := 0; i < seq; i++ {
				correct = append(correct, *p.Run.Trace.OutputAt(i))
			}
			wrong := *p.Run.Trace.OutputAt(seq)
			for i := 0; i < b.N; i++ {
				g := depgraph.New(p.Run.Trace)
				an := confidence.New(p.Faulty, g, p.Profile, correct, wrong)
				an.Compute()
				_ = an.FaultCandidates()
			}
		})
	}
}

// BenchmarkTable3Effectiveness regenerates Table 3: the full demand-
// driven localization per case.
func BenchmarkTable3Effectiveness(b *testing.B) {
	for _, name := range allCaseNames() {
		p := prep(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.Locate(p.Spec())
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

// BenchmarkTable4Performance regenerates Table 4's three columns as
// separate measurements: Plain execution, Graph (traced) execution, and
// one Verification re-execution with alignment.
func BenchmarkTable4Performance(b *testing.B) {
	for _, name := range allCaseNames() {
		p := prep(b, name)
		in := p.Case.FailingInput

		b.Run(name+"/Plain", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := backend.Default().Run(p.Faulty, interp.Options{Input: in})
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		})
		b.Run(name+"/Graph", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := backend.Default().Run(p.Faulty, interp.Options{Input: in, BuildTrace: true})
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		})
		b.Run(name+"/Verify", func(b *testing.B) {
			seq, _, ok := slicing.FirstWrongOutput(p.Run.OutputValues(), p.Expected)
			if !ok {
				b.Fatal("no failure")
			}
			wrong := *p.Run.Trace.OutputAt(seq)
			// Verify one representative dependence: the wrong output on
			// the first preceding predicate instance with a potential
			// dependence.
			cx := slicing.NewContext(p.Faulty, p.Run.Trace)
			pds := cx.PotentialDeps(wrong.Entry)
			if len(pds) == 0 {
				b.Skip("no potential dependence at the wrong output")
			}
			req := implicit.Request{
				Pred: pds[0].Pred, Use: wrong.Entry,
				UseSym: pds[0].UseSym, UseElem: pds[0].UseElem,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := &implicit.Verifier{
					C: p.Faulty, Input: in, Orig: p.Run.Trace,
					WrongOut: wrong, Vexp: p.Expected[seq], HasVexp: true,
				}
				v.VerifyDetailed(req)
			}
		})
	}
}

// verifyWorkload enumerates a realistic verification batch for one case:
// every potential dependence of every entry in the wrong output's dynamic
// slice — the candidates that repeated expand iterations of Algorithm 2
// feed to VerifyDep — capped at 96 requests. It also returns a factory
// for fresh verifiers over the failing run.
func verifyWorkload(b *testing.B, p *bench.Prepared) (func() *implicit.Verifier, []implicit.Request) {
	b.Helper()
	tr := p.Run.Trace
	seq, _, ok := slicing.FirstWrongOutput(p.Run.OutputValues(), p.Expected)
	if !ok {
		b.Fatal("no failure")
	}
	wrong := *tr.OutputAt(seq)
	newVerifier := func() *implicit.Verifier {
		v := &implicit.Verifier{
			C: p.Faulty, Input: p.Case.FailingInput, Orig: tr, WrongOut: wrong,
		}
		if seq < len(p.Expected) {
			v.Vexp, v.HasVexp = p.Expected[seq], true
		}
		return v
	}

	cx := slicing.NewContext(p.Faulty, tr)
	g := depgraph.New(tr)
	slice := slicing.Dynamic(g, slicing.FailureSeeds(tr, seq))
	var reqs []implicit.Request
	for _, u := range slice.Ordered() {
		for _, pd := range cx.PotentialDeps(u) {
			reqs = append(reqs, implicit.Request{
				Pred: pd.Pred, Use: u, UseSym: pd.UseSym, UseElem: pd.UseElem,
			})
			if len(reqs) >= 96 {
				return newVerifier, reqs
			}
		}
	}
	return newVerifier, reqs
}

// BenchmarkVerifyEngine measures the verification hot path — the batch of
// switched re-executions + alignments behind one expand iteration — under
// the three scheduling modes of internal/verifyengine: sequential
// (workers=1, no cache), parallel (workers=4), and parallel + switched-run
// cache. The cached mode additionally reports its cache hit rate.
func BenchmarkVerifyEngine(b *testing.B) {
	modes := []struct {
		name             string
		workers, cacheSz int
	}{
		{"seq", 1, -1},
		{"par4", 4, -1},
		{"par4cache", 4, 0},
	}
	for _, name := range allCaseNames() {
		p := prep(b, name)
		newVerifier, reqs := verifyWorkload(b, p)
		if len(reqs) < 2 {
			continue
		}
		for _, m := range modes {
			b.Run(fmt.Sprintf("%s/%s", name, m.name), func(b *testing.B) {
				b.ReportMetric(float64(len(reqs)), "reqs")
				var last verifyengine.Stats
				for i := 0; i < b.N; i++ {
					e := verifyengine.New(newVerifier(),
						verifyengine.Config{Workers: m.workers, CacheSize: m.cacheSz})
					if _, err := e.VerifyBatchContext(context.Background(), reqs); err != nil {
						b.Fatal(err)
					}
					last = e.Stats()
				}
				if m.cacheSz >= 0 {
					b.ReportMetric(100*last.HitRate(), "hit%")
				}
			})
		}
	}
}

// BenchmarkVerifyEngineLocate measures full localizations under the same
// three scheduling modes — the end-to-end view, where verification is
// one phase among tracing, slicing and confidence analysis.
func BenchmarkVerifyEngineLocate(b *testing.B) {
	modes := []struct {
		name             string
		workers, cacheSz int
	}{
		{"seq", 1, -1},
		{"par4", 4, -1},
		{"par4cache", 4, 0},
	}
	for _, name := range allCaseNames() {
		p := prep(b, name)
		for _, m := range modes {
			b.Run(fmt.Sprintf("%s/%s", name, m.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					spec := p.Spec()
					spec.VerifyWorkers = m.workers
					spec.VerifyCacheSize = m.cacheSz
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

// BenchmarkCheckpointReplay measures what checkpointed forking buys one
// switched re-execution — the unit of work BenchmarkVerifyEngine runs in
// batches — on a long trace (the scaled grep analog), both sides on the
// bytecode VM. Switch targets sit in the last quarter of the trace,
// where Algorithm 2's demand-driven expansion spends most verifications
// (candidates near the wrong output); "full" replays the program from
// the start, "fork" resumes from the nearest checkpoint. The
// suffix_steps/full_steps metrics show the replay saving behind the
// time difference.
func BenchmarkCheckpointReplay(b *testing.B) {
	p := prep(b, "grepsim/V4-F2")
	in := bench.ScaledGrepInput(400)
	st := vm.Backend.NewCheckpoints(0)
	run := vm.Backend.Run(p.Faulty, interp.Options{Input: in, BuildTrace: true, Checkpoints: st})
	if run.Err != nil {
		b.Fatal(run.Err)
	}
	tr := run.Trace
	budget := 10*tr.Len() + 1000

	// Predicate instances in the last quarter of the trace.
	var preds []trace.Instance
	for i := tr.Len() * 3 / 4; i < tr.Len() && len(preds) < 8; i++ {
		if e := tr.At(i); e.Branch != cfg.None {
			preds = append(preds, e.Inst)
		}
	}
	if len(preds) == 0 {
		b.Fatal("no late predicates in the scaled trace")
	}

	b.Run("full", func(b *testing.B) {
		var steps int
		for i := 0; i < b.N; i++ {
			r := implicit.RunSwitchedFrom(nil, vm.Backend, p.Faulty, in, nil, nil, preds[i%len(preds)], budget)
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			steps = r.Steps
		}
		b.ReportMetric(float64(steps), "full_steps")
	})
	b.Run("fork", func(b *testing.B) {
		var suffix int
		for i := 0; i < b.N; i++ {
			pred := preds[i%len(preds)]
			r := vm.Backend.RunSwitchedFrom(st, tr, p.Faulty, interp.Options{
				Input:      in,
				Switch:     &interp.SwitchPlan{Stmt: pred.Stmt, Occ: pred.Occ},
				StepBudget: budget,
			})
			if r == nil {
				b.Fatal("no checkpoint before a late predicate")
			}
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			suffix = r.Steps - r.ResumedAt
		}
		b.ReportMetric(float64(suffix), "suffix_steps")
	})
}

// BenchmarkRepruneIncremental measures what incremental re-pruning buys
// a full localization: Algorithm 2's re-prune step after each expansion
// iteration either re-propagates only the dirty cone invalidated by the
// newly verified edges (inc) or recomputes confidence over the whole
// slice from scratch (full). The Reports are identical either way
// (internal/core TestIncrementalDeterminismBench); this measures the
// cost difference on the multi-iteration cases, and on the grep-long-sized
// subject of TestGrepLongLocateAllocCeiling, where the oracle answers
// hundreds of questions per Locate.
func BenchmarkRepruneIncremental(b *testing.B) {
	type subject struct {
		name string
		spec func() *core.Spec
	}
	var subjects []subject
	for _, name := range []string{"grepsim/V4-F2", "sedsim/V3-F2", "sedsim/V3-F3"} {
		subjects = append(subjects, subject{name, prep(b, name).Spec})
	}
	subjects = append(subjects, subject{"grepsim/V4-F2/30lines", grepLongSpec(b)})
	for _, subj := range subjects {
		for _, mode := range []struct {
			label string
			full  bool
		}{{"full", true}, {"inc", false}} {
			b.Run(fmt.Sprintf("%s/%s", subj.name, mode.label), func(b *testing.B) {
				b.ReportAllocs()
				var reeval int64
				var frac float64
				for i := 0; i < b.N; i++ {
					spec := subj.spec()
					spec.Disable.IncrementalReprune = mode.full
					rep, err := core.Locate(spec)
					if err != nil {
						b.Fatal(err)
					}
					if !rep.Located {
						b.Fatalf("%s: not located", subj.name)
					}
					reeval = rep.Stats.Repropagated
					frac = rep.Stats.DirtyFraction
				}
				b.ReportMetric(float64(reeval), "reeval/op")
				b.ReportMetric(frac, "dirtyfrac")
			})
		}
	}
}

// BenchmarkObserverOverhead measures what observation costs a full
// localization: nil observer (the fast path every unobserved run takes)
// vs a JSONL journal to io.Discard vs the in-memory timeline sink. The
// nil mode is the one the <5% overhead budget in docs/OBSERVABILITY.md
// is measured against.
func BenchmarkObserverOverhead(b *testing.B) {
	modes := []struct {
		name string
		mk   func() obs.Observer
	}{
		{"nil", func() obs.Observer { return nil }},
		{"journal", func() obs.Observer { return obs.NewJournal(io.Discard) }},
		{"memory", func() obs.Observer { return &obs.Memory{} }},
	}
	for _, name := range []string{"gzipsim/V2-F3", "sedsim/V3-F2"} {
		p := prep(b, name)
		for _, m := range modes {
			b.Run(fmt.Sprintf("%s/%s", name, m.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					spec := p.Spec()
					spec.VerifyWorkers = 1
					spec.Observer = m.mk()
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

// BenchmarkAblationRSConfidence times the naive relevant-slicing +
// confidence combination (§3.2) on the Fig. 1 case.
func BenchmarkAblationRSConfidence(b *testing.B) {
	p := prep(b, "gzipsim/V2-F3")
	seq, _, _ := slicing.FirstWrongOutput(p.Run.OutputValues(), p.Expected)
	var correct []trace.Output
	for i := 0; i < seq; i++ {
		correct = append(correct, *p.Run.Trace.OutputAt(i))
	}
	wrong := *p.Run.Trace.OutputAt(seq)
	for i := 0; i < b.N; i++ {
		cx := slicing.NewContext(p.Faulty, p.Run.Trace)
		g := depgraph.New(p.Run.Trace)
		cx.Relevant(g, slicing.FailureSeeds(p.Run.Trace, seq))
		an := confidence.New(p.Faulty, g, p.Profile, correct, wrong)
		an.Kinds |= depgraph.Potential
		an.Naive = true
		an.Compute()
	}
}

// BenchmarkAblationEdgesVsPaths compares the two VerifyDep modes on the
// case where they differ most (gzipsim).
func BenchmarkAblationEdgesVsPaths(b *testing.B) {
	p := prep(b, "gzipsim/V2-F3")
	for _, mode := range []struct {
		name string
		path bool
	}{{"edges", false}, {"paths", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := p.Spec()
				spec.PathMode = mode.path
				rep, err := core.Locate(spec)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Located {
					b.Fatal("not located")
				}
			}
		})
	}
}

// BenchmarkAblationCritPred times the ICSE 2006 critical-predicate
// search baseline against the locator on the same case.
func BenchmarkAblationCritPred(b *testing.B) {
	p := prep(b, "flexsim/V1-F9")
	b.Run("critpred", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := critpred.Search(p.Faulty, p.Case.FailingInput, p.Expected,
				critpred.Options{Strategy: critpred.Prior})
			if !res.Found {
				b.Fatal("not found")
			}
		}
	})
	b.Run("locator", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := core.Locate(p.Spec())
			if err != nil || !rep.Located {
				b.Fatalf("locate failed: %v", err)
			}
		}
	})
}

// BenchmarkAlignment times Algorithm 1 in isolation: matching the wrong
// output point across a switched re-execution of the grep analog.
func BenchmarkAlignment(b *testing.B) {
	p := prep(b, "grepsim/V4-F2")
	seq, _, _ := slicing.FirstWrongOutput(p.Run.OutputValues(), p.Expected)
	wrong := *p.Run.Trace.OutputAt(seq)
	cx := slicing.NewContext(p.Faulty, p.Run.Trace)
	pds := cx.PotentialDeps(wrong.Entry)
	if len(pds) == 0 {
		b.Skip("no potential dependence")
	}
	pe := p.Run.Trace.At(pds[0].Pred)
	sw := interp.Run(p.Faulty, interp.Options{
		Input: p.Case.FailingInput, BuildTrace: true,
		Switch: &interp.SwitchPlan{Stmt: pe.Inst.Stmt, Occ: pe.Inst.Occ},
	})
	if sw.Err != nil {
		b.Fatal(sw.Err)
	}
	prog := &Program{c: p.Faulty}
	orig := &Execution{p: prog, res: p.Run}
	swe := &Execution{p: prog, res: sw}
	point := p.Run.Trace.At(wrong.Entry).Inst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AlignPoint(orig, swe, pe.Inst, point)
	}
}

// BenchmarkPotentialDeps times Definition 1 enumeration at the wrong
// output of every case.
func BenchmarkPotentialDeps(b *testing.B) {
	for _, name := range allCaseNames() {
		p := prep(b, name)
		seq, _, _ := slicing.FirstWrongOutput(p.Run.OutputValues(), p.Expected)
		seed := slicing.FailureSeeds(p.Run.Trace, seq)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cx := slicing.NewContext(p.Faulty, p.Run.Trace)
				cx.PotentialDeps(seed)
			}
		})
	}
}

// BenchmarkInterpreterThroughput measures raw substrate speed: statement
// instances per second in plain and traced modes on the largest trace.
func BenchmarkInterpreterThroughput(b *testing.B) {
	src := `
func main() {
    var n = read();
    var acc = 0;
    for (var i = 0; i < n; i++) {
        acc = (acc * 31 + i) % 65521;
        if (acc % 7 == 0) {
            acc = acc + 3;
        }
    }
    print(acc);
}`
	c, err := interp.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	input := []int64{10000}
	for _, mode := range []struct {
		name  string
		trace bool
	}{{"plain", false}, {"traced", true}} {
		b.Run(mode.name, func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				r := interp.Run(c, interp.Options{Input: input, BuildTrace: mode.trace})
				if r.Err != nil {
					b.Fatal(r.Err)
				}
				steps = r.Steps
			}
			b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msteps/s")
		})
	}
}

// BenchmarkScaling sweeps workload size on the grep analog: trace
// construction (Graph mode) and the two slicers as the number of input
// lines grows. This is the parameter-sweep view behind Table 2's size
// columns and Table 4's cost columns.
func BenchmarkScaling(b *testing.B) {
	p := prep(b, "grepsim/V4-F2")
	for _, lines := range []int{20, 100, grepCorrectLines} {
		in := bench.ScaledGrepInput(lines)
		run := interp.Run(p.Faulty, interp.Options{Input: in, BuildTrace: true})
		if run.Err != nil {
			b.Fatal(run.Err)
		}
		exp := interp.Run(p.Correct, interp.Options{Input: in})
		if exp.Err != nil {
			b.Fatalf("correct version on %d lines: %v", lines, exp.Err)
		}
		seq, _, ok := slicing.FirstWrongOutput(run.OutputValues(), exp.OutputValues())
		if !ok {
			b.Fatalf("scaled input (%d lines) did not expose the fault", lines)
		}
		seed := slicing.FailureSeeds(run.Trace, seq)

		b.Run(fmt.Sprintf("lines=%d/Graph", lines), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := interp.Run(p.Faulty, interp.Options{Input: in, BuildTrace: true})
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
			b.ReportMetric(float64(run.Trace.Len()), "trace_entries")
		})
		b.Run(fmt.Sprintf("lines=%d/DS", lines), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := depgraph.New(run.Trace)
				slicing.Dynamic(g, seed)
			}
		})
		b.Run(fmt.Sprintf("lines=%d/RS", lines), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cx := slicing.NewContext(p.Faulty, run.Trace)
				g := depgraph.New(run.Trace)
				cx.Relevant(g, seed)
			}
		})
	}
}

// BenchmarkPerturbationFallback measures the §5 extension against plain
// switching verification on the Table 5(b) shape.
func BenchmarkPerturbationFallback(b *testing.B) {
	src := `
func main() {
    var A = read() * 0 + 5;
    var X = 1;
    if (A > 10) {
        if (A > 100) {
            X = 2;
        }
    }
    print(X);
}`
	c, err := interp.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	input := []int64{200}
	run := interp.Run(c, interp.Options{Input: input, BuildTrace: true})
	if run.Err != nil {
		b.Fatal(run.Err)
	}
	var aDef, pr int
	for i := 0; i < run.Trace.Len(); i++ {
		switch run.Trace.At(i).Inst.Stmt {
		case 1:
			aDef = i
		case 6:
			pr = i
		}
	}
	b.Run("perturb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := &implicit.Verifier{C: c, Input: input, Orig: run.Trace}
			res := v.PerturbVerify(implicit.PerturbRequest{
				Def: aDef, Use: pr, Candidates: []int64{9, 11, 99, 101},
			})
			if !res.Dependent {
				b.Fatal("dependence not exposed")
			}
		}
	})
}
