// Command slicer computes the paper's three slices — classic dynamic
// slice (DS), relevant slice (RS), and confidence-pruned slice (PS) — for
// a failing run of a MiniC program.
//
// Usage:
//
//	slicer -correct correct.mc [flags] faulty.mc
//
//	-input "1,2,3"    integer input stream (failing input)
//	-text "abc"       input as the bytes of a string
//	-disasm           print the faulty program's compiled bytecode with
//	                  source-statement annotations and exit
//	-slices ds,rs,ps  which slices to print (default all)
//	-instances        list statement instances, not just statistics
//	-engine           print SPDG and dependence-graph engine statistics
//	-dot FILE         write the relevant-slice dependence graph (with
//	                  potential edges) as Graphviz DOT
//	-trace FILE       write the deterministic JSONL run journal
//	-progress         print live phase progress to stderr
//
// The correct version supplies the expected output; the first differing
// value is the wrong output the slices are computed from.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"eol/internal/backend"
	"eol/internal/cliutil"
	"eol/internal/confidence"
	"eol/internal/depgraph"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/obs"
	"eol/internal/slicing"
	"eol/internal/staticdep"
	"eol/internal/trace"
	"eol/internal/vm"
)

func main() {
	inputFlag := flag.String("input", "", "comma-separated integer input")
	textFlag := flag.String("text", "", "input as the bytes of a string")
	correctFlag := flag.String("correct", "", "path to the correct program version")
	slicesFlag := flag.String("slices", "ds,rs,ps", "which slices to print")
	instFlag := flag.Bool("instances", false, "list statement instances")
	engineFlag := flag.Bool("engine", false, "print dependence-graph engine statistics per slice")
	dotFlag := flag.String("dot", "", "write the RS dependence graph as DOT to this file")
	disasmFlag := flag.Bool("disasm", false, "print the compiled bytecode listing and exit")
	obsFlags := cliutil.RegisterObsFlags(flag.CommandLine)
	flag.Parse()

	if *disasmFlag {
		if flag.NArg() != 1 {
			cliutil.Usagef("usage: slicer -disasm faulty.mc")
		}
		fmt.Print(vm.Disassemble(mustCompile(flag.Arg(0))))
		return
	}

	if flag.NArg() != 1 || *correctFlag == "" {
		cliutil.Usagef("usage: slicer -correct correct.mc [flags] faulty.mc (see -h)")
	}
	input, err := cliutil.Input(*inputFlag, *textFlag)
	if err != nil {
		cliutil.Usagef("slicer: %v", err)
	}

	faulty := mustCompile(flag.Arg(0))
	correct := mustCompile(*correctFlag)

	observer, closeObs, err := obsFlags.Observer()
	if err != nil {
		cliutil.Fatalf("slicer: %v", err)
	}
	rec := obs.NewRecorder(observer)

	bk := backend.Default()
	expRun := bk.Run(correct, interp.Options{Input: input, Rec: rec})
	if expRun.Err != nil {
		cliutil.Fatalf("slicer: correct run: %v", expRun.Err)
	}
	rec.Begin("failing_run")
	run := bk.Run(faulty, interp.Options{Input: input, BuildTrace: true, Rec: rec})
	rec.End("failing_run", int64(run.Steps))
	if run.Err != nil {
		cliutil.Fatalf("slicer: faulty run: %v", run.Err)
	}

	seq, missing, ok := slicing.FirstWrongOutput(run.OutputValues(), expRun.OutputValues())
	if !ok {
		cliutil.Fatalf("slicer: outputs match; nothing to slice")
	}
	if missing {
		cliutil.Fatalf("slicer: failure is a truncated output stream; need a wrong value")
	}
	o := run.Trace.OutputAt(seq)
	fmt.Printf("wrong output #%d: got %d, expected %d (at %v)\n",
		seq, o.Value, expRun.OutputValues()[seq], run.Trace.At(o.Entry).Inst)

	rec.Begin("slicing")
	cx := slicing.NewContext(faulty, run.Trace)
	seed := slicing.FailureSeeds(run.Trace, seq)

	if *engineFlag {
		ss := staticdep.New(faulty, cx.Flow).Stats()
		fmt.Printf("SPDG: %d nodes, %d edges (control %d, data %d, summary %d), %d predicates (%d harmless cones)\n",
			ss.Nodes, ss.Edges(), ss.ControlEdges, ss.DataEdges, ss.SummaryEdges,
			ss.Predicates, ss.HarmlessCones)
	}

	if *dotFlag != "" {
		g := depgraph.New(run.Trace)
		set := cx.Relevant(g, seed)
		f, err := os.Create(*dotFlag)
		if err != nil {
			cliutil.Fatalf("slicer: %v", err)
		}
		hl := depgraph.NewSet(run.Trace.Len())
		hl.Add(seed)
		err = g.WriteDOT(f, depgraph.DOTOptions{
			Only:      set,
			Highlight: hl,
			Label: func(i int) string {
				e := run.Trace.At(i)
				return fmt.Sprintf("%v %s", e.Inst, ast.StmtString(faulty.Info.Stmt(e.Inst.Stmt)))
			},
		})
		cerr := f.Close()
		if err != nil || cerr != nil {
			cliutil.Fatalf("slicer: writing DOT: %v %v", err, cerr)
		}
		fmt.Printf("wrote RS dependence graph to %s\n", *dotFlag)
	}

	for _, which := range strings.Split(*slicesFlag, ",") {
		switch strings.TrimSpace(strings.ToLower(which)) {
		case "ds":
			g := depgraph.New(run.Trace)
			set := slicing.Dynamic(g, seed)
			printSlice(faulty, run.Trace, "DS (classic dynamic slice)", g, set, *instFlag)
			printEngine(g, nil, *engineFlag)
		case "rs":
			g := depgraph.New(run.Trace)
			set := cx.Relevant(g, seed)
			printSlice(faulty, run.Trace, "RS (relevant slice)", g, set, *instFlag)
			printEngine(g, nil, *engineFlag)
		case "ps":
			g := depgraph.New(run.Trace)
			var correctOuts []trace.Output
			for i := 0; i < seq; i++ {
				correctOuts = append(correctOuts, *run.Trace.OutputAt(i))
			}
			an := confidence.New(faulty, g, nil, correctOuts, *o)
			an.Compute()
			set := depgraph.NewSet(run.Trace.Len())
			for _, cand := range an.FaultCandidates() {
				set.Add(cand.Entry)
			}
			printSlice(faulty, run.Trace, "PS (confidence-pruned slice)", g, set, *instFlag)
			printEngine(g, an, *engineFlag)
		default:
			cliutil.Usagef("slicer: unknown slice kind %q", which)
		}
	}
	rec.End("slicing", int64(run.Trace.Len()))
	if cerr := closeObs(); cerr != nil {
		cliutil.Fatalf("slicer: closing -trace journal: %v", cerr)
	}
}

func mustCompile(path string) *interp.Compiled {
	src, err := cliutil.LoadSource(path)
	if err != nil {
		cliutil.Fatalf("slicer: %v", err)
	}
	c, err := interp.Compile(src)
	if err != nil {
		cliutil.Fatalf("slicer: %s: %v", path, err)
	}
	return c
}

// printEngine reports the depgraph engine's shape for the slice just
// printed: immutable CSR base vs analysis-added overlay (broken out by
// edge kind), and the last re-prune pass's dirty fraction when a
// confidence analyzer ran. A single slicer invocation computes each
// slice in one pass, so the fraction is n/a unless something (an
// expansion, a pin) forced a re-prune.
func printEngine(g *depgraph.Graph, an *confidence.Analyzer, enabled bool) {
	if !enabled {
		return
	}
	es := g.EngineStats()
	dirty := "n/a"
	if an != nil {
		if passes, reeval := an.RepropStats(); passes > 0 && es.Nodes > 0 {
			dirty = fmt.Sprintf("%.3f", float64(reeval)/(float64(passes)*float64(es.Nodes)))
		}
	}
	fmt.Printf("  engine: %d nodes, %d CSR base edges, %d overlay edges (pd %d, id %d, sid %d), last dirty fraction %s\n",
		es.Nodes, es.BaseEdges, es.OverlayEdges,
		g.NumExtraEdges(depgraph.Potential),
		g.NumExtraEdges(depgraph.Implicit),
		g.NumExtraEdges(depgraph.StrongImplicit),
		dirty)
}

func printSlice(c *interp.Compiled, tr *trace.Trace, title string, g *depgraph.Graph, set *depgraph.Set, insts bool) {
	stats := g.Stats(set)
	fmt.Printf("\n%s: %d statements, %d instances\n", title, stats.Static, stats.Dynamic)
	if insts {
		for _, i := range set.Ordered() {
			e := tr.At(i)
			fmt.Printf("  %-9v %s\n", e.Inst, ast.StmtString(c.Info.Stmt(e.Inst.Stmt)))
		}
		return
	}
	seen := map[int]bool{}
	for _, i := range set.Ordered() {
		id := tr.At(i).Inst.Stmt
		if !seen[id] {
			seen[id] = true
			fmt.Printf("  S%-4d %s\n", id, ast.StmtString(c.Info.Stmt(id)))
		}
	}
}
