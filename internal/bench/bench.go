// Package bench defines the benchmark suite of the reproduction: MiniC
// analogs of the four SIR/Siemens utilities the paper evaluates on
// (flex, grep, gzip, sed), each with seeded execution-omission faults
// mirroring the nine error cases of Table 2/Table 3.
//
// Every fault is an in-place, expression-level edit of the correct
// program (like the paper's seeded errors), so the faulty and correct
// versions share statement numbering — which both the ground-truth state
// oracle and the evaluation harness rely on. Each case carries a failing
// input that exposes the fault and a set of passing inputs used as the
// test suite (value profiles for confidence analysis, and regression
// checks that the fault stays latent on them).
package bench

import (
	"fmt"
	"strings"

	"eol/internal/backend"
	"eol/internal/check"
	"eol/internal/confidence"
	"eol/internal/core"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/oracle"
)

// Case is one benchmark error case (a row of Tables 2-4).
type Case struct {
	// Program is the benchmark name: flexsim, grepsim, gzipsim, sedsim.
	Program string
	// ID names the error in the paper's "Vx-Fy" style.
	ID string
	// Description explains the seeded fault.
	Description string

	// CorrectSrc is the correct program; the faulty version is produced
	// by replacing FaultFrom with FaultTo (exactly once).
	CorrectSrc string
	FaultFrom  string
	FaultTo    string

	// RootFrag is a source fragment identifying the root-cause statement
	// in the *faulty* program.
	RootFrag string

	// FailingInput exposes the fault; PassingInputs do not (they form
	// the test suite and the value profile).
	FailingInput  []int64
	PassingInputs [][]int64
}

// Name returns "program/ID".
func (c *Case) Name() string { return c.Program + "/" + c.ID }

// FaultySrc derives the faulty program text.
func (c *Case) FaultySrc() (string, error) {
	if !strings.Contains(c.CorrectSrc, c.FaultFrom) {
		return "", fmt.Errorf("%s: fault site %q not found", c.Name(), c.FaultFrom)
	}
	if strings.Count(c.CorrectSrc, c.FaultFrom) != 1 {
		return "", fmt.Errorf("%s: fault site %q is ambiguous", c.Name(), c.FaultFrom)
	}
	return strings.Replace(c.CorrectSrc, c.FaultFrom, c.FaultTo, 1), nil
}

// Prepared is a compiled, executed and profiled case, ready for analysis.
type Prepared struct {
	Case     *Case
	Faulty   *interp.Compiled
	Correct  *interp.Compiled
	Expected []int64        // correct outputs on the failing input
	Run      *interp.Result // traced faulty run on the failing input
	Profile  *confidence.Profile
	RootStmt int
}

// Prepare compiles both versions, runs them on the failing input, builds
// the value profile from the passing inputs, and resolves the root-cause
// statement.
func (c *Case) Prepare() (*Prepared, error) {
	faultySrc, err := c.FaultySrc()
	if err != nil {
		return nil, err
	}
	faulty, err := interp.Compile(faultySrc)
	if err != nil {
		return nil, fmt.Errorf("%s: faulty: %w", c.Name(), err)
	}
	correct, err := interp.Compile(c.CorrectSrc)
	if err != nil {
		return nil, fmt.Errorf("%s: correct: %w", c.Name(), err)
	}
	if faulty.Info.NumStmts() != correct.Info.NumStmts() {
		return nil, fmt.Errorf("%s: fault edit changed statement numbering", c.Name())
	}
	for _, v := range []struct {
		which string
		c     *interp.Compiled
	}{{"correct", correct}, {"faulty", faulty}} {
		if diags := check.Vet(check.NewUnit(v.c)); check.HasErrors(diags) {
			return nil, fmt.Errorf("%s: %s version fails static validation: %v", c.Name(), v.which, diags)
		}
	}

	bk := backend.Default()
	correctRun := bk.Run(correct, interp.Options{Input: c.FailingInput, BuildTrace: true})
	if correctRun.Err != nil {
		return nil, fmt.Errorf("%s: correct run: %w", c.Name(), correctRun.Err)
	}
	faultyRun := bk.Run(faulty, interp.Options{Input: c.FailingInput, BuildTrace: true})
	if faultyRun.Err != nil {
		return nil, fmt.Errorf("%s: faulty run: %w", c.Name(), faultyRun.Err)
	}

	prof := confidence.NewProfile()
	for _, in := range c.PassingInputs {
		r := bk.Run(faulty, interp.Options{Input: in, BuildTrace: true})
		if r.Err != nil {
			return nil, fmt.Errorf("%s: profile run: %w", c.Name(), r.Err)
		}
		prof.AddTrace(r.Trace)
	}

	root := 0
	for _, s := range faulty.Info.Stmts {
		if strings.Contains(ast.StmtString(s), c.RootFrag) {
			root = s.ID()
			break
		}
	}
	if root == 0 {
		return nil, fmt.Errorf("%s: root fragment %q not found", c.Name(), c.RootFrag)
	}

	return &Prepared{
		Case:     c,
		Faulty:   faulty,
		Correct:  correct,
		Expected: correctRun.OutputValues(),
		Run:      faultyRun,
		Profile:  prof,
		RootStmt: root,
	}, nil
}

// CorrectTrace returns the reference trace on the failing input.
func (p *Prepared) CorrectTrace() *interp.Result {
	return backend.Default().Run(p.Correct, interp.Options{Input: p.Case.FailingInput, BuildTrace: true})
}

// Spec builds the localization problem with the ground-truth state
// oracle.
func (p *Prepared) Spec() *core.Spec {
	return &core.Spec{
		Program:   p.Faulty,
		Input:     p.Case.FailingInput,
		Expected:  p.Expected,
		RootCause: []int{p.RootStmt},
		Oracle:    &oracle.StateOracle{Correct: p.CorrectTrace().Trace},
		Profile:   p.Profile,
	}
}

// LOC counts non-blank source lines of the correct program.
func (c *Case) LOC() int {
	n := 0
	for _, l := range strings.Split(c.CorrectSrc, "\n") {
		if strings.TrimSpace(l) != "" {
			n++
		}
	}
	return n
}

// Cases returns all benchmark error cases in Table 2 order.
func Cases() []*Case {
	var cs []*Case
	cs = append(cs, flexCases()...)
	cs = append(cs, grepCases()...)
	cs = append(cs, gzipCases()...)
	cs = append(cs, sedCases()...)
	return cs
}

// ByName returns the case with the given "program/ID" name, or nil.
func ByName(name string) *Case {
	for _, c := range Cases() {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Input encoding helpers

// Bytes encodes a string as its byte values.
func Bytes(s string) []int64 {
	vs := make([]int64, len(s))
	for i := 0; i < len(s); i++ {
		vs[i] = int64(s[i])
	}
	return vs
}

// Line encodes a length-prefixed line: [len, bytes...].
func Line(s string) []int64 {
	return append([]int64{int64(len(s))}, Bytes(s)...)
}

// Cat concatenates input fragments.
func Cat(parts ...[]int64) []int64 {
	var res []int64
	for _, p := range parts {
		res = append(res, p...)
	}
	return res
}
