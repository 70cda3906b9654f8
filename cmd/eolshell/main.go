// Command eolshell is the interactive localization session the paper's
// PruneSlicing procedure describes: "the system presents the statement
// instances in the slice in an order and the programmer gives feedback to
// the system if he considers the presented statement instance contains
// benign program state."
//
// Usage:
//
//	eolshell -input "1" [-expected "8,8"] [-correct correct.mc] faulty.mc
//
// The expected output comes either from -expected or from running a
// correct version. The session then loops:
//
//	[k] S12#1  C=0.000  outbuf[outcnt] = flags;
//	benign state at S12#1? [y]es / [n]o / [e]xpand / [l]ist / [q]uit
//
//	y  - pin the instance at confidence 1 and re-rank
//	n  - keep it as a fault candidate, present the next
//	e  - verify the potential dependences of the top corrupted candidate
//	     by predicate switching and add the verified implicit edges
//	l  - print the current ranked candidate list
//	q  - quit, printing the final fault candidate set
//
// The [e]xpand verifications go through the verification engine, so the
// unified -workers / -cache flags size its pool and switched-run cache,
// and -trace / -progress observe the session like any eoloc run.
// -disasm prints the faulty program's compiled bytecode with
// source-statement annotations instead of starting a session.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"eol/internal/backend"
	"eol/internal/cliutil"
	"eol/internal/confidence"
	"eol/internal/depgraph"
	"eol/internal/implicit"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/obs"
	"eol/internal/slicing"
	"eol/internal/trace"
	"eol/internal/verifyengine"
	"eol/internal/vm"
)

func main() {
	inputFlag := flag.String("input", "", "comma-separated integer input")
	textFlag := flag.String("text", "", "input as the bytes of a string")
	correctFlag := flag.String("correct", "", "path to the correct program version")
	expectedFlag := flag.String("expected", "", "expected output values (overrides -correct)")
	disasmFlag := flag.Bool("disasm", false, "print the compiled bytecode listing and exit")
	engFlags := cliutil.RegisterEngineFlags(flag.CommandLine)
	obsFlags := cliutil.RegisterObsFlags(flag.CommandLine)
	flag.Parse()

	if flag.NArg() != 1 {
		cliutil.Usagef("usage: eolshell [-correct correct.mc | -expected \"8,8\"] -input ... faulty.mc")
	}
	src, err := cliutil.LoadSource(flag.Arg(0))
	if err != nil {
		cliutil.Fatalf("eolshell: %v", err)
	}
	faulty, err := interp.Compile(src)
	if err != nil {
		cliutil.Fatalf("eolshell: %v", err)
	}

	if *disasmFlag {
		fmt.Print(vm.Disassemble(faulty))
		return
	}

	input, err := cliutil.Input(*inputFlag, *textFlag)
	if err != nil {
		cliutil.Usagef("eolshell: %v", err)
	}

	var expected []int64
	switch {
	case *expectedFlag != "":
		expected, err = cliutil.ParseInts(*expectedFlag)
		if err != nil {
			cliutil.Usagef("eolshell: -expected: %v", err)
		}
	case *correctFlag != "":
		csrc, err := cliutil.LoadSource(*correctFlag)
		if err != nil {
			cliutil.Fatalf("eolshell: %v", err)
		}
		correct, err := interp.Compile(csrc)
		if err != nil {
			cliutil.Fatalf("eolshell: %v", err)
		}
		r := backend.Default().Run(correct, interp.Options{Input: input})
		if r.Err != nil {
			cliutil.Fatalf("eolshell: correct run: %v", r.Err)
		}
		expected = r.OutputValues()
	default:
		cliutil.Usagef("eolshell: need -correct or -expected")
	}

	observer, closeObs, err := obsFlags.Observer()
	if err != nil {
		cliutil.Fatalf("eolshell: %v", err)
	}
	sh, err := newShell(faulty, input, expected, *engFlags, obs.NewRecorder(observer))
	if err != nil {
		cliutil.Fatalf("eolshell: %v", err)
	}
	sh.loop(bufio.NewScanner(os.Stdin))
	if cerr := closeObs(); cerr != nil {
		cliutil.Fatalf("eolshell: closing -trace journal: %v", cerr)
	}
}

// shell drives one interactive session.
type shell struct {
	c   *interp.Compiled
	tr  *trace.Trace
	cx  *slicing.Context
	an  *confidence.Analyzer
	ver *implicit.Verifier
	eng *verifyengine.Engine
	rec *obs.Recorder

	expanded map[int]bool
}

func newShell(c *interp.Compiled, input, expected []int64, ef cliutil.EngineFlags, rec *obs.Recorder) (*shell, error) {
	rec.Begin("failing_run")
	run := backend.Default().Run(c, interp.Options{Input: input, BuildTrace: true, Rec: rec})
	rec.End("failing_run", int64(run.Steps))
	if run.Err != nil {
		return nil, fmt.Errorf("failing run aborted: %w", run.Err)
	}
	seq, missing, ok := slicing.FirstWrongOutput(run.OutputValues(), expected)
	if !ok {
		return nil, fmt.Errorf("output matches the expected output; nothing to debug")
	}
	if missing {
		return nil, fmt.Errorf("failure is a truncated output stream; need a wrong value")
	}
	tr := run.Trace
	wrong := *tr.OutputAt(seq)
	var correct []trace.Output
	for i := 0; i < seq; i++ {
		correct = append(correct, *tr.OutputAt(i))
	}
	g := depgraph.New(tr)
	an := confidence.New(c, g, nil, correct, wrong)
	an.Incremental = true
	an.Compute()
	ver := &implicit.Verifier{C: c, Input: input, Orig: tr, WrongOut: wrong, Rec: rec}
	if seq < len(expected) {
		ver.Vexp, ver.HasVexp = expected[seq], true
	}
	eng := verifyengine.New(ver, verifyengine.Config{
		Workers:   ef.Workers,
		CacheSize: ef.Cache,
		Rec:       rec,
	})
	fmt.Printf("wrong output #%d: got %d", seq, wrong.Value)
	if ver.HasVexp {
		fmt.Printf(", expected %d", ver.Vexp)
	}
	fmt.Printf(" (printed at %v)\n", tr.At(wrong.Entry).Inst)
	return &shell{
		c: c, tr: tr, cx: slicing.NewContext(c, tr), an: an, ver: ver,
		eng: eng, rec: rec,
		expanded: map[int]bool{},
	}, nil
}

func (sh *shell) stmtText(id int) string {
	s := sh.c.Info.Stmt(id)
	if s == nil {
		return "?"
	}
	return ast.StmtString(s)
}

func (sh *shell) list() {
	cands := sh.an.FaultCandidates()
	fmt.Printf("fault candidates (%d, most suspicious first):\n", len(cands))
	for i, cand := range cands {
		mark := " "
		if sh.an.Judged(cand.Entry) {
			mark = "×" // user-confirmed corrupted
		}
		inst := sh.tr.At(cand.Entry).Inst
		fmt.Printf(" %s %2d. %-9v C=%.3f  %s\n", mark, i+1, inst, cand.Conf, sh.stmtText(inst.Stmt))
	}
}

// expand verifies PD(u) of the top corrupted candidate and adds verified
// edges.
func (sh *shell) expand() {
	for _, cand := range sh.an.FaultCandidates() {
		if sh.expanded[cand.Entry] {
			continue
		}
		sh.expanded[cand.Entry] = true
		u := cand.Entry
		pds := sh.cx.PotentialDeps(u)
		if len(pds) == 0 {
			fmt.Printf("no potential dependences at %v; trying the next candidate\n", sh.tr.At(u).Inst)
			continue
		}
		reqs := make([]implicit.Request, len(pds))
		for i, pd := range pds {
			reqs[i] = implicit.Request{
				Pred: pd.Pred, Use: u, UseSym: pd.UseSym, UseElem: pd.UseElem,
			}
		}
		// The session has no deadline, so the batch is never cancelled
		// and returns no error.
		verdicts, _ := sh.eng.VerifyBatchContext(context.Background(), reqs)
		added := 0
		for i, pd := range pds {
			verdict := verdicts[i]
			pi := sh.tr.At(pd.Pred).Inst
			fmt.Printf("  VerifyDep(%v -> %v) = %v\n", pi, sh.tr.At(u).Inst, verdict)
			switch verdict {
			case implicit.StrongID:
				sh.an.AddEdges(confidence.Arc{From: u, To: pd.Pred, Kind: depgraph.StrongImplicit})
				added++
			case implicit.ID:
				sh.an.AddEdges(confidence.Arc{From: u, To: pd.Pred, Kind: depgraph.Implicit})
				added++
			}
		}
		if added > 0 {
			sh.an.Compute()
			fmt.Printf("%d implicit edge(s) added; slice re-pruned\n", added)
			return
		}
	}
	fmt.Println("no candidate produced verified edges")
}

func (sh *shell) loop(in *bufio.Scanner) {
	for {
		cand, ok := sh.an.Next()
		if !ok {
			fmt.Println("every candidate is confirmed corrupted; [e]xpand, [l]ist or [q]uit")
		} else {
			inst := sh.tr.At(cand.Entry).Inst
			fmt.Printf("benign state at %v  C=%.3f  %s ? [y/n/e/l/q] ",
				inst, cand.Conf, sh.stmtText(inst.Stmt))
		}
		if !in.Scan() {
			break
		}
		switch strings.ToLower(strings.TrimSpace(in.Text())) {
		case "y", "yes":
			if ok {
				sh.an.Pin(cand.Entry)
				sh.an.Compute()
			}
		case "n", "no":
			if ok {
				sh.an.Judge(cand.Entry)
			}
		case "e", "expand":
			sh.expand()
		case "l", "list":
			sh.list()
		case "q", "quit", "":
			fmt.Println("final state:")
			sh.list()
			es := sh.eng.Stats()
			fmt.Printf("%d verifications performed (%d switched runs, %d cache hits)\n",
				sh.ver.Verifications, es.Runs, es.CacheHits)
			return
		default:
			fmt.Println("commands: y(es) n(o) e(xpand) l(ist) q(uit)")
		}
	}
}
