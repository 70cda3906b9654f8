// Command critpred runs the ICSE 2006 critical-predicate search — the
// predicate-switching baseline the PLDI 2007 paper builds on: brute-force
// switch one predicate instance at a time until the program produces the
// expected output.
//
// Usage:
//
//	critpred -correct correct.mc [flags] faulty.mc
//
//	-input "1,2,3"   integer input stream (failing input)
//	-text "abc"      input as the bytes of a string
//	-strategy S      search order: lefs (last-executed-first-switched)
//	                 or prior (dynamic-slice prioritized; default)
//	-max N           bound the number of re-executions
//
// Compare its re-execution counts against eoloc's verification counts:
// the locator verifies individual dependences at the failure point and
// keeps working where whole-output repair is impossible (see Ablation C).
package main

import (
	"flag"
	"fmt"
	"strings"

	"eol/internal/backend"
	"eol/internal/cliutil"
	"eol/internal/critpred"
	"eol/internal/interp"
	"eol/internal/lang/ast"
)

func main() {
	inputFlag := flag.String("input", "", "comma-separated integer input")
	textFlag := flag.String("text", "", "input as the bytes of a string")
	correctFlag := flag.String("correct", "", "path to the correct program version")
	strategyFlag := flag.String("strategy", "prior", "search order: lefs or prior")
	maxFlag := flag.Int("max", 0, "bound on re-executions (0 = all)")
	flag.Parse()

	if flag.NArg() != 1 || *correctFlag == "" {
		cliutil.Usagef("usage: critpred -correct correct.mc [flags] faulty.mc (see -h)")
	}
	input, err := cliutil.Input(*inputFlag, *textFlag)
	if err != nil {
		cliutil.Usagef("critpred: %v", err)
	}

	faulty := mustCompile(flag.Arg(0))
	correct := mustCompile(*correctFlag)

	expRun := backend.Default().Run(correct, interp.Options{Input: input})
	if expRun.Err != nil {
		cliutil.Fatalf("critpred: correct run: %v", expRun.Err)
	}

	var strategy critpred.Strategy
	switch strings.ToLower(*strategyFlag) {
	case "lefs":
		strategy = critpred.LEFS
	case "prior":
		strategy = critpred.Prior
	default:
		cliutil.Usagef("critpred: unknown strategy %q", *strategyFlag)
	}

	res := critpred.Search(faulty, input, expRun.OutputValues(), critpred.Options{
		Strategy:    strategy,
		MaxSwitches: *maxFlag,
	})
	fmt.Printf("%d candidate predicate instances, %d switches tried (%s order)\n",
		res.Candidates, res.Switches, strategy)
	if !res.Found {
		fmt.Println("no critical predicate: no single switch repairs the whole output")
		return
	}
	fmt.Printf("CRITICAL PREDICATE: %v  %s\n", res.Critical,
		ast.StmtString(faulty.Info.Stmt(res.Critical.Stmt)))
}

func mustCompile(path string) *interp.Compiled {
	src, err := cliutil.LoadSource(path)
	if err != nil {
		cliutil.Fatalf("critpred: %v", err)
	}
	c, err := interp.Compile(src)
	if err != nil {
		cliutil.Fatalf("critpred: %s: %v", path, err)
	}
	return c
}
