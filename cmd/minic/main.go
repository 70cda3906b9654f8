// Command minic runs a MiniC program: the execution substrate of the
// execution-omission-error reproduction.
//
// Usage:
//
//	minic [flags] program.mc
//
//	-input "1,2,3"   integer input stream
//	-text "abc"      input as the bytes of a string
//	-list            print the numbered statement listing and exit
//	-vet             run the static checker suite and exit (exit 1 if
//	                 any diagnostic fires; see eolvet for the full CLI)
//	-trace           print the execution trace (instances, parents, deps)
//	-switch S:K      invert the K-th instance of predicate statement S
//	-perturb S:K:V   override the value defined by the K-th instance of
//	                 statement S with V
//	-cfgdot FUNC     print FUNC's control-flow graph as Graphviz DOT
//	                 (with control-dependence annotations) and exit
//	-budget N        step budget (default 10,000,000)
//
// Examples:
//
//	minic -text 'if x for y' testdata/flexsim.mc
//	minic -input '1,0,97,97,98' -switch 8:1 testdata/gzipsim.mc
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"eol/internal/backend"
	"eol/internal/check"
	"eol/internal/cliutil"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/trace"
)

func main() {
	inputFlag := flag.String("input", "", "comma-separated integer input")
	textFlag := flag.String("text", "", "input as the bytes of a string")
	listFlag := flag.Bool("list", false, "print numbered statement listing and exit")
	vetFlag := flag.Bool("vet", false, "run the static checker suite and exit")
	traceFlag := flag.Bool("trace", false, "print the execution trace")
	switchFlag := flag.String("switch", "", "invert predicate instance S:K")
	perturbFlag := flag.String("perturb", "", "override defined value S:K:V")
	cfgFlag := flag.String("cfgdot", "", "print this function's CFG as DOT and exit")
	budgetFlag := flag.Int("budget", 0, "step budget")
	flag.Parse()

	if flag.NArg() != 1 {
		cliutil.Usagef("usage: minic [flags] program.mc (see -h)")
	}
	src, err := cliutil.LoadSource(flag.Arg(0))
	if err != nil {
		cliutil.Fatalf("minic: %v", err)
	}
	c, err := interp.Compile(src)
	if err != nil {
		cliutil.Fatalf("minic: %v", err)
	}

	if *listFlag {
		for _, s := range c.Info.Stmts {
			fmt.Printf("S%-4d %s\n", s.ID(), ast.StmtString(s))
		}
		return
	}
	if *vetFlag {
		diags := check.Vet(check.NewUnit(c))
		for _, d := range diags {
			fmt.Println(d)
		}
		if len(diags) > 0 {
			os.Exit(1)
		}
		return
	}
	if *cfgFlag != "" {
		g, ok := c.CFG.Funcs[*cfgFlag]
		if !ok {
			cliutil.Usagef("minic: no function %q", *cfgFlag)
		}
		if err := g.WriteDOT(os.Stdout, true); err != nil {
			cliutil.Fatalf("minic: %v", err)
		}
		return
	}

	input, err := cliutil.Input(*inputFlag, *textFlag)
	if err != nil {
		cliutil.Usagef("minic: %v", err)
	}

	opts := interp.Options{
		Input:      input,
		BuildTrace: *traceFlag,
		StepBudget: *budgetFlag,
	}
	if *switchFlag != "" {
		var s, k int
		if _, err := fmt.Sscanf(*switchFlag, "%d:%d", &s, &k); err != nil {
			cliutil.Usagef("minic: bad -switch %q (want S:K)", *switchFlag)
		}
		opts.Switch = &interp.SwitchPlan{Stmt: s, Occ: k}
		opts.BuildTrace = true
	}
	if *perturbFlag != "" {
		var s, k int
		var v int64
		if _, err := fmt.Sscanf(*perturbFlag, "%d:%d:%d", &s, &k, &v); err != nil {
			cliutil.Usagef("minic: bad -perturb %q (want S:K:V)", *perturbFlag)
		}
		opts.Perturb = &interp.PerturbPlan{Stmt: s, Occ: k, Value: v}
		opts.BuildTrace = true
	}
	r := backend.Default().Run(c, opts)
	fmt.Print(r.Rendered)
	if opts.Switch != nil && !r.SwitchApplied {
		fmt.Printf("(switch %v never reached)\n", opts.Switch)
	}
	if opts.Perturb != nil && !r.PerturbApplied {
		fmt.Printf("(perturbation %v never reached)\n", opts.Perturb)
	}
	if *traceFlag && r.Trace != nil {
		fmt.Printf("--- trace: %d entries, %d outputs ---\n", r.Trace.Len(), len(r.Trace.Outputs))
		for i := 0; i < r.Trace.Len(); i++ {
			e := r.Trace.At(i)
			var deps []string
			for _, u := range r.Trace.Uses(i) {
				if u.Def != trace.NoDef {
					deps = append(deps, fmt.Sprintf("dd:%d", u.Def))
				}
			}
			if e.Parent >= 0 {
				deps = append(deps, fmt.Sprintf("cd:%d", e.Parent))
			}
			mark := ""
			if e.Switched {
				mark = " [switched]"
			}
			branch := ""
			if e.Branch != 0 {
				branch = " " + e.Branch.String()
			}
			fmt.Printf("%5d %-9v%s val=%-6d %s%s\n",
				i, e.Inst, branch, e.Value, strings.Join(deps, " "), mark)
		}
	}
	if r.Err != nil {
		cliutil.Fatalf("minic: runtime error: %v", r.Err)
	}
}
