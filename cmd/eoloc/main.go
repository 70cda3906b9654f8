// Command eoloc runs the demand-driven execution-omission-error locator
// (Algorithm 2 of the PLDI 2007 paper) on a failing MiniC run.
//
// Usage:
//
//	eoloc -correct correct.mc [flags] faulty.mc
//
//	-input "1,2,3"  integer input stream (failing input)
//	-text "abc"     input as the bytes of a string
//	-root FRAG      source fragment of the root-cause statement (stops
//	                the search when it enters the candidate set)
//	-path           use the safe explicit-path VerifyDep variant
//	-iters N        maximum expansion iterations (default 10)
//	-profile "in1;in2"  extra passing inputs (';'-separated int lists)
//	                for value profiles
//	-perturb        enable the value-perturbation fallback (§5)
//	-report FILE    write a markdown debugging report
//	-deadline D     wall-clock bound for the whole localization ("30s");
//	                on expiry eoloc exits 1 with class [deadline]
//	-workers N      verification workers (0 = GOMAXPROCS, 1 = sequential)
//	-cache N        switched-run cache size (0 = default, negative = off)
//	-trace FILE     write the deterministic JSONL run journal
//	-progress       print live phase progress to stderr
//
// The correct version provides both the expected output and the
// ground-truth benign-state oracle (instances whose state matches the
// correct run are benign), mechanizing the paper's interactive protocol.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"eol/internal/backend"
	"eol/internal/cliutil"
	"eol/internal/confidence"
	"eol/internal/core"
	"eol/internal/depgraph"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/oracle"
	"eol/internal/report"
)

func main() {
	inputFlag := flag.String("input", "", "comma-separated integer input")
	textFlag := flag.String("text", "", "input as the bytes of a string")
	correctFlag := flag.String("correct", "", "path to the correct program version")
	rootFlag := flag.String("root", "", "source fragment of the root-cause statement")
	pathFlag := flag.Bool("path", false, "use the safe explicit-path VerifyDep")
	itersFlag := flag.Int("iters", 0, "maximum expansion iterations")
	profileFlag := flag.String("profile", "", "';'-separated passing inputs for value profiles")
	perturbFlag := flag.Bool("perturb", false, "enable the value-perturbation fallback")
	reportFlag := flag.String("report", "", "write a markdown debugging report to this file")
	deadlineFlag := cliutil.RegisterDeadlineFlag(flag.CommandLine)
	engFlags := cliutil.RegisterEngineFlags(flag.CommandLine)
	obsFlags := cliutil.RegisterObsFlags(flag.CommandLine)
	flag.Parse()

	if flag.NArg() != 1 || *correctFlag == "" {
		cliutil.Usagef("usage: eoloc -correct correct.mc [flags] faulty.mc (see -h)")
	}
	input, err := cliutil.Input(*inputFlag, *textFlag)
	if err != nil {
		cliutil.Usagef("eoloc: %v", err)
	}

	faulty := mustCompile(flag.Arg(0))
	correct := mustCompile(*correctFlag)

	corRun := backend.Default().Run(correct, interp.Options{Input: input, BuildTrace: true})
	if corRun.Err != nil {
		cliutil.Fatalf("eoloc: correct run: %v", corRun.Err)
	}

	observer, closeObs, err := obsFlags.Observer()
	if err != nil {
		cliutil.Fatalf("eoloc: %v", err)
	}

	spec := &core.Spec{
		Program:         faulty,
		Input:           input,
		Expected:        corRun.OutputValues(),
		Oracle:          &oracle.StateOracle{Correct: corRun.Trace},
		MaxIterations:   *itersFlag,
		PathMode:        *pathFlag,
		PerturbFallback: *perturbFlag,
		VerifyWorkers:   engFlags.Workers,
		VerifyCacheSize: engFlags.Cache,
		Observer:        observer,
	}

	if *rootFlag != "" {
		for _, s := range faulty.Info.Stmts {
			if strings.Contains(ast.StmtString(s), *rootFlag) {
				spec.RootCause = append(spec.RootCause, s.ID())
			}
		}
		if len(spec.RootCause) == 0 {
			cliutil.Usagef("eoloc: no statement matches -root %q", *rootFlag)
		}
	}

	if *profileFlag != "" {
		prof := confidence.NewProfile()
		for _, part := range strings.Split(*profileFlag, ";") {
			in, err := cliutil.ParseInts(part)
			if err != nil {
				cliutil.Usagef("eoloc: -profile: %v", err)
			}
			r := backend.Default().Run(faulty, interp.Options{Input: in, BuildTrace: true})
			if r.Err != nil {
				cliutil.Fatalf("eoloc: profile run: %v", r.Err)
			}
			prof.AddTrace(r.Trace)
		}
		spec.Profile = prof
	}

	ctx, cancel := deadlineFlag.Context()
	rep, err := core.LocateContext(ctx, spec)
	cancel()
	if cerr := closeObs(); cerr != nil {
		cliutil.Fatalf("eoloc: closing -trace journal: %v", cerr)
	}
	cliutil.ExitErr("eoloc", err)

	fmt.Printf("wrong output #%d: got %d, expected %d\n",
		rep.WrongOutput.Seq, rep.WrongOutput.Value, rep.Vexp)
	fmt.Printf("%d user prunings, %d verifications, %d iterations, %d implicit edges (%d strong)\n",
		rep.Stats.UserPrunings, rep.Stats.Verifications, rep.Stats.Iterations, rep.Stats.ExpandedEdges,
		rep.Graph.NumExtraEdges(depgraph.StrongImplicit))
	if rep.Located {
		inst := rep.Trace.At(rep.RootEntry).Inst
		fmt.Printf("ROOT CAUSE located: %v  %s\n", inst,
			ast.StmtString(faulty.Info.Stmt(inst.Stmt)))
	} else if len(spec.RootCause) > 0 {
		fmt.Printf("root cause NOT located\n")
	}
	fmt.Printf("final fault candidate set (IPS, %d statements / %d instances):\n",
		rep.IPS.Static, rep.IPS.Dynamic)
	for i, e := range rep.IPSEntries {
		inst := rep.Trace.At(e).Inst
		fmt.Printf("  %2d. %-9v C=%.3f  %s\n", i+1, inst, rep.IPSConfidence[i],
			ast.StmtString(faulty.Info.Stmt(inst.Stmt)))
	}

	if *reportFlag != "" {
		f, err := os.Create(*reportFlag)
		if err != nil {
			cliutil.Fatalf("eoloc: %v", err)
		}
		err = report.WriteMarkdown(f, report.Input{
			Program: faulty, Report: rep, RootCause: spec.RootCause,
		})
		cerr := f.Close()
		if err != nil || cerr != nil {
			cliutil.Fatalf("eoloc: writing report: %v %v", err, cerr)
		}
		fmt.Printf("report written to %s\n", *reportFlag)
	}
}

func mustCompile(path string) *interp.Compiled {
	src, err := cliutil.LoadSource(path)
	if err != nil {
		cliutil.Fatalf("eoloc: %v", err)
	}
	c, err := interp.Compile(src)
	if err != nil {
		cliutil.Fatalf("eoloc: %s: %v", path, err)
	}
	return c
}
