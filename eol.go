// Package eol (Execution Omission Locator) is the public API of this
// reproduction of "Towards Locating Execution Omission Errors" (Zhang,
// Tallam, Gupta, Gupta — PLDI 2007).
//
// The package compiles MiniC programs (the deterministic C-like language
// that serves as the execution substrate; see DESIGN.md), executes them
// with full dependence tracing, and exposes the paper's analyses:
//
//   - classic dynamic slicing and relevant slicing (the baselines),
//   - implicit-dependence verification by predicate switching
//     (Definitions 2 and 4, with region-based execution alignment), and
//   - the demand-driven fault locator (Algorithm 2) with confidence-based
//     pruning.
//
// Typical use:
//
//	p := eol.MustCompile(src)
//	s, err := eol.NewSession(p, failingInput, expectedOutput)
//	diag, err := s.Locate()
//	if diag.Located { fmt.Println(diag.Explain()) }
//
// # Context-first API
//
// Every execution entry point has a context-taking form — RunContext,
// RunPlainContext, RunSwitchedContext, LocateContext, LocateCorpus —
// that bounds the whole operation, including switched re-executions on
// the verification workers and the interpreter's step loop, by the
// given context. The context-free forms (Run, Locate, ...) are thin
// wrappers over context.Background and remain the right call when no
// cancellation is needed; code migrating to deadlines only changes the
// call site, nothing else. A canceled or expired Locate returns a
// non-nil partial Diagnosis — its Stats reflect the work done up to the
// abort — together with an error matching ErrCanceled or ErrDeadline
// via errors.Is. See the error taxonomy next to ErrBudget.
package eol

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"io"

	"eol/internal/align"
	"eol/internal/backend"
	"eol/internal/confidence"
	"eol/internal/core"
	"eol/internal/corpus"
	"eol/internal/depgraph"
	"eol/internal/implicit"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/obs"
	"eol/internal/oracle"
	"eol/internal/serve"
	"eol/internal/slicing"
	"eol/internal/trace"
)

// Instance identifies a statement instance: the Occ-th execution of the
// statement with ID Stmt (the paper's "S15(2)" notation).
type Instance = trace.Instance

// Program is a compiled MiniC program.
type Program struct {
	c *interp.Compiled
}

// Compile parses, checks and prepares a MiniC program.
func Compile(src string) (*Program, error) {
	c, err := interp.Compile(src)
	if err != nil {
		return nil, err
	}
	return &Program{c: c}, nil
}

// MustCompile is Compile that panics on error; for tests and examples.
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Source returns the program text.
func (p *Program) Source() string { return p.c.Src }

// NumStatements returns the number of numbered statements.
func (p *Program) NumStatements() int { return p.c.Info.NumStmts() }

// StatementText renders statement id as one line of source ("" if
// unknown).
func (p *Program) StatementText(id int) string {
	s := p.c.Info.Stmt(id)
	if s == nil {
		return ""
	}
	return ast.StmtString(s)
}

// FindStatement returns the ID of the first statement whose rendering
// contains frag.
func (p *Program) FindStatement(frag string) (int, bool) {
	for _, s := range p.c.Info.Stmts {
		if strings.Contains(ast.StmtString(s), frag) {
			return s.ID(), true
		}
	}
	return 0, false
}

// Listing renders the program with S<n> statement labels.
func (p *Program) Listing() string {
	var sb strings.Builder
	for _, s := range p.c.Info.Stmts {
		fmt.Fprintf(&sb, "S%-4d %s\n", s.ID(), ast.StmtString(s))
	}
	return sb.String()
}

// Execution is one completed run of a program.
type Execution struct {
	p   *Program
	res *interp.Result
}

// Run executes the program with full dependence tracing.
func (p *Program) Run(input []int64) (*Execution, error) {
	return p.RunContext(context.Background(), input)
}

// RunContext is Run bounded by ctx (nil = background): the run aborts
// with an error matching ErrCanceled or ErrDeadline when the context
// dies mid-execution.
func (p *Program) RunContext(ctx context.Context, input []int64) (*Execution, error) {
	res := backend.Default().Run(p.c, interp.Options{Input: input, BuildTrace: true, Ctx: ctx})
	if res.Err != nil {
		return nil, res.Err
	}
	return &Execution{p: p, res: res}, nil
}

// RunPlain executes without tracing (the paper's "Plain" mode).
func (p *Program) RunPlain(input []int64) (*Execution, error) {
	return p.RunPlainContext(context.Background(), input)
}

// RunPlainContext is RunPlain bounded by ctx (nil = background).
func (p *Program) RunPlainContext(ctx context.Context, input []int64) (*Execution, error) {
	res := backend.Default().Run(p.c, interp.Options{Input: input, Ctx: ctx})
	if res.Err != nil {
		return nil, res.Err
	}
	return &Execution{p: p, res: res}, nil
}

// RunSwitched re-executes with the given predicate instance's branch
// outcome inverted (the paper's predicate switching).
func (p *Program) RunSwitched(input []int64, pred Instance) (*Execution, error) {
	return p.RunSwitchedContext(context.Background(), input, pred)
}

// RunSwitchedContext is RunSwitched bounded by ctx (nil = background).
func (p *Program) RunSwitchedContext(ctx context.Context, input []int64, pred Instance) (*Execution, error) {
	res := backend.Default().Run(p.c, interp.Options{
		Input: input, BuildTrace: true, Ctx: ctx,
		Switch: &interp.SwitchPlan{Stmt: pred.Stmt, Occ: pred.Occ},
	})
	if res.Err != nil {
		return nil, res.Err
	}
	return &Execution{p: p, res: res}, nil
}

// Outputs returns the printed int values in order.
func (e *Execution) Outputs() []int64 { return e.res.OutputValues() }

// Rendered returns the formatted program output.
func (e *Execution) Rendered() string { return e.res.Rendered }

// Steps returns the number of executed statement instances.
func (e *Execution) Steps() int { return e.res.Steps }

// Instances returns every executed instance in order (traced runs only).
func (e *Execution) Instances() []Instance {
	if e.res.Trace == nil {
		return nil
	}
	insts := make([]Instance, e.res.Trace.Len())
	for i := 0; i < e.res.Trace.Len(); i++ {
		insts[i] = e.res.Trace.At(i).Inst
	}
	return insts
}

// ---------------------------------------------------------------------------
// Failure-analysis session

// ErrNoFailure is returned by NewSession when the output matches.
var ErrNoFailure = errors.New("eol: output matches the expected output")

// The error taxonomy: every terminal error of a run or localization
// matches exactly one of these sentinels via errors.Is, however deep
// the wrapping. ErrDeadline and ErrCanceled additionally match
// context.DeadlineExceeded and context.Canceled respectively, so code
// already switching on the context sentinels keeps working.
var (
	// ErrBudget reports an execution that exhausted its step budget.
	ErrBudget = interp.ErrBudget
	// ErrDeadline reports an operation aborted because its context's
	// deadline passed.
	ErrDeadline = interp.ErrDeadline
	// ErrCanceled reports an operation aborted because its context was
	// canceled.
	ErrCanceled = interp.ErrCanceled
	// ErrNotLocated reports a localization that completed without the
	// known root cause entering the candidate set; corpus runs classify
	// such subjects as failures.
	ErrNotLocated = core.ErrNotLocated
)

// Session analyzes one failing execution of a program.
type Session struct {
	p        *Program
	input    []int64
	expected []int64
	run      *interp.Result
	seq      int
	cx       *slicing.Context
	profile  *confidence.Profile

	settings Settings
}

// Settings collects every Locate knob in one place. LocateOption
// helpers mutate a Settings value, and the applied settings persist on
// the Session across Locate calls. The zero value is the default
// configuration.
type Settings struct {
	// RootCause lists the statement IDs that constitute the fault; the
	// search stops when any of them enters the candidate set.
	RootCause []int
	// Oracle judges benign program state (see WithOracle). Mutually
	// exclusive with Correct; the option applied last wins.
	Oracle func(inst Instance, stmtText string) bool
	// Correct is the correct program version used as a ground-truth
	// state oracle (see WithCorrectVersion).
	Correct *Program
	// MaxIterations bounds the expansion loop (0 = default 10).
	MaxIterations int
	// PathMode selects the safe explicit-path variant of VerifyDep.
	PathMode bool
	// PerturbFallback enables value-perturbation verification when
	// predicate switching exposes no dependence.
	PerturbFallback bool
	// CrossFunctionPD extends potential dependences across function
	// boundaries for globals.
	CrossFunctionPD bool
	// VerifyWorkers sizes the verification worker pool (0 = GOMAXPROCS,
	// 1 = sequential).
	VerifyWorkers int
	// VerifyCacheSize bounds the switched-run cache (0 = default,
	// negative = disabled).
	VerifyCacheSize int
	// Observer receives the run's deterministic event stream (see
	// WithObserver and docs/OBSERVABILITY.md).
	Observer Observer
	// Timeline additionally captures the event stream in
	// Diagnosis.Timeline.
	Timeline bool
}

// NewSession runs the program on input, compares against the expected
// output values, and prepares the analyses. It returns ErrNoFailure when
// the outputs match, and an error for truncated-output failures (the
// technique slices from a wrong value).
func NewSession(p *Program, input, expected []int64) (*Session, error) {
	run := backend.Default().Run(p.c, interp.Options{Input: input, BuildTrace: true})
	if run.Err != nil {
		return nil, fmt.Errorf("eol: failing run aborted: %w", run.Err)
	}
	seq, missing, ok := slicing.FirstWrongOutput(run.OutputValues(), expected)
	if !ok {
		return nil, ErrNoFailure
	}
	if missing {
		return nil, core.ErrMissingOutput
	}
	return &Session{
		p: p, input: input, expected: expected,
		run: run, seq: seq,
		cx:      slicing.NewContext(p.c, run.Trace),
		profile: confidence.NewProfile(),
	}, nil
}

// WrongOutput describes the failure observation: the sequence number of
// the first wrong output, the value printed, the expected value, and the
// producing instance. For an extra-output failure (the program printed
// more values than expected) the want value is reported as 0.
func (s *Session) WrongOutput() (seq int, got, want int64, at Instance) {
	o := s.run.Trace.OutputAt(s.seq)
	if s.seq < len(s.expected) {
		want = s.expected[s.seq]
	}
	return s.seq, o.Value, want, s.run.Trace.At(o.Entry).Inst
}

// AddProfileRun executes the program on a passing input and records the
// value profile used by confidence analysis.
func (s *Session) AddProfileRun(input []int64) error {
	r := backend.Default().Run(s.p.c, interp.Options{Input: input, BuildTrace: true})
	if r.Err != nil {
		return r.Err
	}
	s.profile.AddTrace(r.Trace)
	return nil
}

// Slice is a slice result in the paper's static/dynamic terms.
type Slice struct {
	// Static is the number of unique statements; Dynamic the number of
	// statement instances.
	Static, Dynamic int
	// Statements lists the unique statement IDs.
	Statements []int
	// Instances lists the statement instances, in execution order.
	Instances []Instance
}

// ContainsStmt reports whether the slice includes statement id.
func (sl Slice) ContainsStmt(id int) bool {
	for _, s := range sl.Statements {
		if s == id {
			return true
		}
	}
	return false
}

func (s *Session) newSlice(g *depgraph.Graph, set *depgraph.Set) Slice {
	sl := Slice{}
	stmts := map[int]bool{}
	for _, i := range set.Ordered() {
		e := s.run.Trace.At(i)
		sl.Instances = append(sl.Instances, e.Inst)
		stmts[e.Inst.Stmt] = true
	}
	for id := range stmts {
		sl.Statements = append(sl.Statements, id)
	}
	sl.Static = len(stmts)
	sl.Dynamic = len(sl.Instances)
	return sl
}

// DynamicSlice computes the classic dynamic slice of the wrong output.
func (s *Session) DynamicSlice() Slice {
	g := depgraph.New(s.run.Trace)
	set := slicing.Dynamic(g, slicing.FailureSeeds(s.run.Trace, s.seq))
	return s.newSlice(g, set)
}

// RelevantSlice computes the relevant slice (dynamic + potential
// dependences, Definition 1) of the wrong output.
func (s *Session) RelevantSlice() Slice {
	g := depgraph.New(s.run.Trace)
	set := s.cx.Relevant(g, slicing.FailureSeeds(s.run.Trace, s.seq))
	return s.newSlice(g, set)
}

// PotentialDependences returns the predicate instances that the given
// use instance potentially depends on (Definition 1).
func (s *Session) PotentialDependences(use Instance) []Instance {
	idx := s.run.Trace.FindInstance(use)
	if idx < 0 {
		return nil
	}
	var res []Instance
	seen := map[Instance]bool{}
	for _, pd := range s.cx.PotentialDeps(idx) {
		inst := s.run.Trace.At(pd.Pred).Inst
		if !seen[inst] {
			seen[inst] = true
			res = append(res, inst)
		}
	}
	return res
}

// Verdict classifies a verified dependence.
type Verdict int

// Verdicts, strongest last.
const (
	NotImplicit Verdict = iota
	Implicit
	StrongImplicit
)

// String names the verdict in the paper's notation.
func (v Verdict) String() string {
	switch v {
	case Implicit:
		return "ID"
	case StrongImplicit:
		return "STRONG_ID"
	}
	return "NOT_ID"
}

// VerifyImplicitDependence re-executes with pred's branch switched and
// classifies the dependence of use (through the named variable) on pred,
// per Definitions 2 and 4.
func (s *Session) VerifyImplicitDependence(pred, use Instance, variable string) (Verdict, error) {
	sym := -1
	for _, symbol := range s.p.c.Info.Symbols {
		if symbol.Name == variable {
			sym = symbol.ID
			break
		}
	}
	if sym < 0 {
		return NotImplicit, fmt.Errorf("eol: unknown variable %q", variable)
	}
	pIdx := s.run.Trace.FindInstance(pred)
	uIdx := s.run.Trace.FindInstance(use)
	if pIdx < 0 || uIdx < 0 {
		return NotImplicit, fmt.Errorf("eol: instance not in the failing trace")
	}
	// Find the element actually read for that symbol.
	elem := trace.ScalarElem
	for _, u := range s.run.Trace.Uses(uIdx) {
		if int(u.Sym) == sym {
			elem = u.Elem
			break
		}
	}
	v := &implicit.Verifier{
		C: s.p.c, Input: s.input, Orig: s.run.Trace,
		WrongOut: *s.run.Trace.OutputAt(s.seq),
		PathMode: s.settings.PathMode,
	}
	if s.seq < len(s.expected) {
		v.Vexp, v.HasVexp = s.expected[s.seq], true
	}
	verdict := v.Verify(implicit.Request{Pred: pIdx, Use: uIdx, UseSym: sym, UseElem: elem})
	return Verdict(verdict), nil
}

// ---------------------------------------------------------------------------
// Localization

// LocateOption configures Locate by mutating the Session's Settings.
type LocateOption func(*Settings)

// WithSettings replaces the session's settings wholesale — the bulk
// alternative to chaining individual options.
func WithSettings(st Settings) LocateOption {
	return func(s *Settings) { *s = st }
}

// WithRootCause tells the locator which statement IDs constitute the
// fault, so the search can stop as soon as one enters the candidate set.
func WithRootCause(stmts ...int) LocateOption {
	return func(s *Settings) { s.RootCause = stmts }
}

// WithOracle supplies the benign-state judge (the interactive programmer
// of Algorithm 2): it receives an instance and the statement's source
// text and reports whether the program state there is correct.
func WithOracle(f func(inst Instance, stmtText string) bool) LocateOption {
	return func(s *Settings) { s.Oracle, s.Correct = f, nil }
}

// WithPathMode selects the safe explicit-path variant of VerifyDep.
func WithPathMode() LocateOption {
	return func(s *Settings) { s.PathMode = true }
}

// WithMaxIterations bounds the expansion loop.
func WithMaxIterations(n int) LocateOption {
	return func(s *Settings) { s.MaxIterations = n }
}

// WithVerifyWorkers sizes the verification worker pool (0 = GOMAXPROCS,
// 1 = sequential). Any value yields the same diagnosis — verification
// scheduling is deterministic — only wall-clock time changes.
func WithVerifyWorkers(n int) LocateOption {
	return func(s *Settings) { s.VerifyWorkers = n }
}

// WithVerifyCacheSize bounds the switched-run cache (0 = default size,
// negative = disabled). Repeated verifications against the same predicate
// instance reuse one re-execution.
func WithVerifyCacheSize(n int) LocateOption {
	return func(s *Settings) { s.VerifyCacheSize = n }
}

// WithObserver attaches an observer to the localization run: it receives
// the deterministic event stream — phase spans, counter deltas, final
// stats gauges. See NewJournal, NewProgress and docs/OBSERVABILITY.md.
func WithObserver(o Observer) LocateOption {
	return func(s *Settings) { s.Observer = o }
}

// WithTimeline captures the run's event stream in Diagnosis.Timeline
// (usable with or without WithObserver).
func WithTimeline() LocateOption {
	return func(s *Settings) { s.Timeline = true }
}

type funcOracle struct {
	p *Program
	f func(Instance, string) bool
}

func (o funcOracle) IsBenign(t *trace.Trace, entry int) bool {
	inst := t.At(entry).Inst
	return o.f(inst, o.p.StatementText(inst.Stmt))
}

// Candidate is one ranked fault candidate of the final slice.
type Candidate struct {
	Instance   Instance
	Statement  string
	Confidence float64
}

// Diagnosis is the outcome of the demand-driven localization.
type Diagnosis struct {
	// Located reports whether a root-cause instance entered the
	// candidate set (requires WithRootCause).
	Located bool
	// Root is the located root-cause instance.
	Root Instance
	// Candidates is the final pruned expanded slice (IPS), ranked most
	// suspicious first.
	Candidates []Candidate
	// Stats aggregates the run's counters: the paper's Table 3 terms
	// (UserPrunings, Verifications, Iterations, ExpandedEdges,
	// StrongEdges, ImplicitEdges) and the verification engine's cost
	// counters (SwitchedRuns, CacheHits/Misses, StaticSkips,
	// AlignedRegions).
	Stats Stats
	// Timeline is the run's full event stream when WithTimeline was set.
	Timeline []Event

	program *Program
}

// Explain renders a human-readable summary of the diagnosis.
func (d *Diagnosis) Explain() string {
	var sb strings.Builder
	if d.Located {
		fmt.Fprintf(&sb, "root cause located at %v: %s\n",
			d.Root, d.program.StatementText(d.Root.Stmt))
	} else {
		fmt.Fprintf(&sb, "root cause not located\n")
	}
	fmt.Fprintf(&sb, "%d user prunings, %d verifications, %d iterations, %d implicit edges (%d strong)\n",
		d.Stats.UserPrunings, d.Stats.Verifications, d.Stats.Iterations,
		d.Stats.ExpandedEdges, d.Stats.StrongEdges)
	fmt.Fprintf(&sb, "fault candidates (most suspicious first):\n")
	for i, c := range d.Candidates {
		if i >= 10 {
			fmt.Fprintf(&sb, "  ... and %d more\n", len(d.Candidates)-i)
			break
		}
		fmt.Fprintf(&sb, "  %-8v C=%.3f  %s\n", c.Instance, c.Confidence, c.Statement)
	}
	return sb.String()
}

// Locate runs the demand-driven localization procedure (Algorithm 2).
func (s *Session) Locate(opts ...LocateOption) (*Diagnosis, error) {
	return s.LocateContext(context.Background(), opts...)
}

// LocateContext is Locate bounded by ctx (nil = background): cancelling
// ctx or passing its deadline aborts the procedure — including
// in-flight switched re-executions on the verification workers — with
// an error matching ErrCanceled or ErrDeadline. The returned Diagnosis
// is then non-nil and partial: Stats and Timeline reflect the work done
// up to the abort, while Located and Candidates stay at their zero
// values.
func (s *Session) LocateContext(ctx context.Context, opts ...LocateOption) (*Diagnosis, error) {
	for _, o := range opts {
		o(&s.settings)
	}
	st := &s.settings

	var orc core.Oracle
	switch {
	case st.Correct != nil:
		res := backend.Default().Run(st.Correct.c, interp.Options{Input: s.input, BuildTrace: true, Ctx: ctx})
		switch {
		case res.Err == nil:
			orc = &oracle.StateOracle{Correct: res.Trace}
		case !interp.IsCancellation(res.Err):
			return nil, fmt.Errorf("eol: correct version run: %w", res.Err)
		}
		// A cancelled run falls through: Locate aborts on the same ctx
		// and returns the partial Diagnosis.
	case st.Oracle != nil:
		orc = funcOracle{p: s.p, f: st.Oracle}
	}

	var mem *obs.Memory
	observer := st.Observer
	if st.Timeline {
		mem = &obs.Memory{}
		observer = obs.Tee(observer, mem)
	}

	spec := &core.Spec{
		Program:         s.p.c,
		Input:           s.input,
		Expected:        s.expected,
		RootCause:       st.RootCause,
		Oracle:          orc,
		Profile:         s.profile,
		MaxIterations:   st.MaxIterations,
		PathMode:        st.PathMode,
		PerturbFallback: st.PerturbFallback,
		CrossFunctionPD: st.CrossFunctionPD,
		VerifyWorkers:   st.VerifyWorkers,
		VerifyCacheSize: st.VerifyCacheSize,
		Observer:        observer,
	}
	rep, err := core.LocateContext(ctx, spec)
	if rep == nil {
		return nil, err
	}
	d := &Diagnosis{
		Located: rep.Located,
		Stats:   rep.Stats,
		program: s.p,
	}
	if mem != nil {
		d.Timeline = mem.Events()
	}
	if err != nil {
		// Aborted (deadline, cancellation): hand back the partial
		// diagnosis alongside the error.
		return d, err
	}
	if rep.Located {
		d.Root = rep.Trace.At(rep.RootEntry).Inst
	}
	// The report's IPS entries come ranked from the analyzer.
	for i, e := range rep.IPSEntries {
		inst := rep.Trace.At(e).Inst
		d.Candidates = append(d.Candidates, Candidate{
			Instance:   inst,
			Statement:  s.p.StatementText(inst.Stmt),
			Confidence: rep.IPSConfidence[i],
		})
	}
	return d, nil
}

// ---------------------------------------------------------------------------
// Alignment and pruning, exposed for exploration

// AlignPoint finds the point in the switched execution that corresponds
// to `point` in the original execution, given that `switched` was
// produced by RunSwitched with predicate instance pred (Algorithm 1 of
// the paper). ok == false means no corresponding point exists — itself
// evidence of an implicit dependence (Definition 2 condition (i)).
func AlignPoint(orig, switched *Execution, pred, point Instance) (Instance, bool) {
	if orig.res.Trace == nil || switched.res.Trace == nil {
		return Instance{}, false
	}
	u := orig.res.Trace.FindInstance(point)
	if u < 0 {
		return Instance{}, false
	}
	return align.MatchInstance(orig.res.Trace, switched.res.Trace, pred, u)
}

// PrunedSlice runs confidence analysis over the failing run (without any
// interactive pruning) and returns the pruned dynamic slice as a ranked
// candidate list — the paper's PS. Profile runs added with AddProfileRun
// sharpen the fractional confidences.
func (s *Session) PrunedSlice() []Candidate {
	g := depgraph.New(s.run.Trace)
	var correct []trace.Output
	for i := 0; i < s.seq; i++ {
		correct = append(correct, *s.run.Trace.OutputAt(i))
	}
	an := confidence.New(s.p.c, g, s.profile, correct, *s.run.Trace.OutputAt(s.seq))
	an.Compute()
	var res []Candidate
	for _, cand := range an.FaultCandidates() {
		inst := s.run.Trace.At(cand.Entry).Inst
		res = append(res, Candidate{
			Instance:   inst,
			Statement:  s.p.StatementText(inst.Stmt),
			Confidence: cand.Conf,
		})
	}
	return res
}

// Confidence returns the confidence value of one instance in the failing
// run under automatic (non-interactive) confidence analysis.
func (s *Session) Confidence(inst Instance) (float64, bool) {
	idx := s.run.Trace.FindInstance(inst)
	if idx < 0 {
		return 0, false
	}
	g := depgraph.New(s.run.Trace)
	var correct []trace.Output
	for i := 0; i < s.seq; i++ {
		correct = append(correct, *s.run.Trace.OutputAt(i))
	}
	an := confidence.New(s.p.c, g, s.profile, correct, *s.run.Trace.OutputAt(s.seq))
	an.Compute()
	return an.Confidence(idx), true
}

// WithCorrectVersion supplies the correct program version as the
// benign-state oracle: an instance is benign iff its produced value, read
// values, branch outcome and outputs match the corresponding instance of
// the correct version's run on the same input (matched by a lockstep walk
// over the region trees). This mechanizes the paper's interactive
// protocol with ground truth and is what the evaluation harness uses.
// The correct version must be structurally identical (expression-level
// fault) for the pairing to be meaningful. If its run fails, Locate
// returns that error rather than localizing without an oracle.
func WithCorrectVersion(correct *Program) LocateOption {
	return func(s *Settings) { s.Correct, s.Oracle = correct, nil }
}

// WithCrossFunctionPD extends potential dependences across function
// boundaries for global variables, so omissions inside callees become
// reachable (removes the intraprocedural limitation at the cost of more
// verification candidates).
func WithCrossFunctionPD() LocateOption {
	return func(s *Settings) { s.CrossFunctionPD = true }
}

// WithPerturbFallback enables the value-perturbation fallback (the
// paper's §5 proposal): when predicate switching exposes no implicit
// dependence — the nested-predicate soundness gap of Table 5(b) — the
// locator perturbs the values feeding the candidate predicates across
// comparison boundaries and the value profile instead.
func WithPerturbFallback() LocateOption {
	return func(s *Settings) { s.PerturbFallback = true }
}

// ---------------------------------------------------------------------------
// Corpus localization

// CorpusManifest describes a batch of localization subjects; see
// docs/CORPUS.md for the JSON format.
type CorpusManifest = corpus.Manifest

// CorpusSubject is one subject of a corpus manifest.
type CorpusSubject = corpus.Subject

// CorpusOptions configures LocateCorpus. The zero value shards over
// GOMAXPROCS and shares one default-sized switched-run cache.
type CorpusOptions struct {
	// Shards is the number of subjects localized concurrently
	// (0 = GOMAXPROCS); it never changes results.
	Shards int
	// Deadline bounds each subject's wall clock when the manifest sets
	// none (0 = unbounded).
	Deadline time.Duration
	// FailFast cancels the remaining subjects after the first subject
	// error.
	FailFast bool
	// VerifyWorkers sizes each session's verification pool
	// (0 = GOMAXPROCS).
	VerifyWorkers int
	// CacheSize bounds the switched-run cache shared by all subjects
	// (0 = default, negative = no caching).
	CacheSize int
	// Shared, if non-nil, is warm state kept across calls; its run cache
	// replaces the one CacheSize would size.
	Shared *CorpusShared
	// Observer, if non-nil, receives the corpus journal.
	Observer Observer
}

func (o CorpusOptions) corpus() corpus.Options {
	return corpus.Options{
		Shards: o.Shards, Deadline: o.Deadline, FailFast: o.FailFast,
		VerifyWorkers: o.VerifyWorkers, CacheSize: o.CacheSize,
		Shared: o.Shared, Observer: o.Observer,
	}
}

// CorpusResult is the outcome of a corpus run: per-subject results in
// manifest order plus totals.
type CorpusResult = corpus.Result

// CorpusSubjectResult is the outcome of one corpus subject.
type CorpusSubjectResult = corpus.SubjectResult

// LoadCorpus reads and validates a corpus manifest file, resolving
// subject file references relative to the manifest's directory.
func LoadCorpus(path string) (*CorpusManifest, error) { return corpus.Load(path) }

// LocateCorpus localizes every subject of the manifest concurrently
// over a sharded session pool, sharing compiled programs and the
// switched-run cache across subjects, bounded end to end by ctx.
// Individual subject failures (deadline, budget, root cause not
// located) land in their CorpusSubjectResult — classify them with
// errors.Is against the eol error taxonomy or by the Class field —
// while LocateCorpus's own error is reserved for an invalid manifest.
// Per-subject counters, the journal, and the located/failed totals are
// byte-identical for any shard count; see docs/CORPUS.md.
func LocateCorpus(ctx context.Context, m *CorpusManifest, opts CorpusOptions) (*CorpusResult, error) {
	return corpus.Run(ctx, m, opts.corpus())
}

// CorpusShared is warm state shared across corpus runs: the compile
// cache and the switched-run cache. Pass one via CorpusOptions.Shared to
// keep caches hot between LocateCorpus calls (this is what the eolserve
// daemon does per process).
type CorpusShared = corpus.Shared

// NewCorpusShared builds warm corpus state. cacheSize sizes the
// switched-run cache (0 = default, negative = disabled).
func NewCorpusShared(cacheSize int) *CorpusShared { return corpus.NewShared(cacheSize) }

// ---------------------------------------------------------------------------
// Localization service

// ServeConfig sizes a localization Server: per-request corpus options,
// session/queue bounds, per-tenant rate limits, and the async job
// table. The zero value is a usable development server. See
// docs/SERVER.md.
type ServeConfig struct {
	// Corpus shapes each request's run; Shared and Observer are owned by
	// the server and ignored here.
	Corpus CorpusOptions
	// MaxDeadline caps every subject's deadline (0 = uncapped).
	MaxDeadline time.Duration
	// Sessions bounds concurrently running requests (0 = GOMAXPROCS).
	Sessions int
	// Queue bounds requests waiting for a session slot (0 = 2×Sessions).
	Queue int
	// Rate is each tenant's sustained request rate in requests/second
	// (0 = unlimited); Burst the bucket depth (0 = max(1, Rate)).
	Rate  float64
	Burst int
	// MaxJobs bounds the async job table (0 = 64).
	MaxJobs int
	// Now is the rate limiter's clock (nil = time.Now).
	Now func() time.Time
}

// Server is the resident localization service: LocateCorpus behind
// HTTP/JSON with persistent warm state, multi-tenant rate limiting,
// and admission control. It implements http.Handler; responses are
// byte-identical to eolcorpus batch output for the same subjects.
type Server = serve.Server

// NewServer builds a Server with fresh warm state.
func NewServer(cfg ServeConfig) *Server {
	return serve.New(serve.Config{
		Corpus: cfg.Corpus.corpus(), MaxDeadline: cfg.MaxDeadline,
		Sessions: cfg.Sessions, Queue: cfg.Queue, Rate: cfg.Rate, Burst: cfg.Burst,
		MaxJobs: cfg.MaxJobs, Now: cfg.Now,
	})
}

// ---------------------------------------------------------------------------
// Observability

// Event is one record of a localization run's observability stream
// (see docs/OBSERVABILITY.md for the schema).
type Event = obs.Event

// Observer consumes a run's event stream.
type Observer = obs.Observer

// Stats aggregates a run's counters; see Diagnosis.Stats.
type Stats = obs.Stats

// Journal is a JSONL run-journal sink. The journal for a fixed
// configuration is byte-identical across runs and worker counts; call
// Flush when the run is done.
type Journal = obs.Journal

// NewJournal returns a Journal writing JSON Lines to w.
func NewJournal(w io.Writer) *Journal { return obs.NewJournal(w) }

// NewProgress returns an observer rendering a human-readable live view
// of the run to w.
func NewProgress(w io.Writer) Observer { return obs.NewProgress(w) }

// TeeObservers fans one event stream out to several observers (nils are
// dropped).
func TeeObservers(os ...Observer) Observer { return obs.Tee(os...) }

// VerifyByPerturbation checks whether `use` depends on the *definition*
// instance `def` by re-executing with def's value replaced by each
// candidate (the §5 alternative to predicate switching). It reports
// whether a dependence was exposed, the witnessing value, and the number
// of re-executions spent.
func (s *Session) VerifyByPerturbation(def, use Instance, candidates []int64) (dependent bool, witness int64, reexecutions int, err error) {
	d := s.run.Trace.FindInstance(def)
	u := s.run.Trace.FindInstance(use)
	if d < 0 || u < 0 {
		return false, 0, 0, fmt.Errorf("eol: instance not in the failing trace")
	}
	v := &implicit.Verifier{
		C: s.p.c, Input: s.input, Orig: s.run.Trace,
		WrongOut: *s.run.Trace.OutputAt(s.seq),
	}
	if s.seq < len(s.expected) {
		v.Vexp, v.HasVexp = s.expected[s.seq], true
	}
	res := v.PerturbVerify(implicit.PerturbRequest{Def: d, Use: u, Candidates: candidates})
	return res.Dependent, res.Witness, res.Reexecutions, nil
}
