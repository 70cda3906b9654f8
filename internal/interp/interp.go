// Package interp is the MiniC execution substrate: a deterministic
// tree-walking interpreter with complete dynamic tracing and forced
// predicate switching.
//
// It stands in for the valgrind-based online component of the PLDI 2007
// prototype (see DESIGN.md). Three capabilities matter downstream:
//
//  1. Trace mode records, per executed statement instance, its dynamic
//     data dependences (per-cell last writer), its dynamic control parent
//     (maintained with a control-dependence stack of (instance, immediate
//     post-dominator) pairs), branch outcomes, and output events. The
//     parent relation is exactly the region decomposition of Definition 3.
//  2. A SwitchPlan forces the branch outcome of one chosen predicate
//     instance to invert — the paper's predicate-switching mechanism used
//     by implicit-dependence verification.
//  3. A step budget bounds re-executions, standing in for the paper's
//     verification timer: on expiry the run reports ErrBudget and the
//     verification is treated as failed. Options.Ctx layers wall-clock
//     bounds on the same accounting: ctx.Err() is polled once per
//     ctxCheckEvery steps (see StepMeter), so a live context never changes
//     results and a dead one aborts with ErrCanceled/ErrDeadline at a
//     deterministic step.
//
// Execution is fully deterministic given the same input vector, which the
// alignment algorithm relies on ("the two executions are identical till
// they reach the points of p and p'").
//
// The tree-walker is the reference oracle of the Backend contract: it
// always executes from the start. Checkpointed suffix replay
// (docs/CHECKPOINT.md) lives in the bytecode VM only.
package interp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"eol/internal/cfg"
	"eol/internal/lang/ast"
	"eol/internal/lang/parser"
	"eol/internal/lang/sem"
	"eol/internal/lang/token"
	"eol/internal/obs"
	"eol/internal/trace"
)

// Compiled is a compiled MiniC program, shareable across runs.
type Compiled struct {
	Src  string
	Prog *ast.Program
	Info *sem.Info
	CFG  *cfg.Program

	// artifacts caches products derived from the program alone (the
	// VM's bytecode, the dataflow analysis) keyed by an opaque key, so a
	// program compiled once is lowered and analyzed once no matter how
	// many runs or goroutines share the *Compiled. See Artifact.
	artifacts sync.Map
}

// Artifact returns the artifact cached under key, building it with build
// on first use. Concurrent first calls may each run build, but all
// callers observe the same stored value (builds must be deterministic
// and side-effect free, which bytecode lowering and dataflow analysis
// are, and the value must be read-only once built).
func (c *Compiled) Artifact(key any, build func() any) any {
	if v, ok := c.artifacts.Load(key); ok {
		return v
	}
	v, _ := c.artifacts.LoadOrStore(key, build())
	return v
}

// Compile parses, checks and builds CFGs for src.
func Compile(src string) (*Compiled, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := sem.Analyze(prog)
	if err != nil {
		return nil, err
	}
	graphs, err := cfg.Build(info)
	if err != nil {
		return nil, err
	}
	return &Compiled{Src: src, Prog: prog, Info: info, CFG: graphs}, nil
}

// MustCompile panics on error; for tests and embedded programs.
func MustCompile(src string) *Compiled {
	c, err := Compile(src)
	if err != nil {
		panic(fmt.Sprintf("interp.MustCompile: %v", err))
	}
	return c
}

// SwitchPlan requests that the Occ-th dynamic instance of predicate Stmt
// take the opposite branch.
type SwitchPlan struct {
	Stmt int
	Occ  int
}

// String renders the plan.
func (s SwitchPlan) String() string { return fmt.Sprintf("switch S%d#%d", s.Stmt, s.Occ) }

// PerturbPlan requests that the value defined by the Occ-th instance of
// statement Stmt (a scalar assignment or declaration, or an array element
// store) be replaced with Value. This is the paper's §5 alternative to
// predicate switching: perturbing the *value* feeding nested predicates
// can expose implicit dependences that flipping one branch at a time
// cannot (the Table 5(b) soundness gap) — at the cost of exploring an
// integer domain instead of a binary one.
type PerturbPlan struct {
	Stmt  int
	Occ   int
	Value int64
}

// String renders the plan.
func (p PerturbPlan) String() string {
	return fmt.Sprintf("perturb S%d#%d := %d", p.Stmt, p.Occ, p.Value)
}

// Options configure one run.
type Options struct {
	// Input is the int stream consumed by read()/peek()/eof().
	Input []int64
	// Switch, if non-nil, inverts one predicate instance.
	Switch *SwitchPlan
	// Perturb, if non-nil, overrides one defined value.
	Perturb *PerturbPlan
	// StepBudget bounds executed statement instances; 0 means
	// DefaultStepBudget. Exceeding it aborts the run with ErrBudget.
	StepBudget int
	// BuildTrace enables full dependence tracing ("Graph" mode of Table
	// 4). Without it only outputs are collected ("Plain" mode).
	BuildTrace bool
	// MaxFrames bounds activation depth; 0 means DefaultMaxFrames.
	MaxFrames int
	// Rec, if non-nil, brackets the run in an interp_run span whose End
	// value is the executed step count. Callers that run the interpreter
	// from worker goroutines (the verify engine) must leave it nil —
	// observability for those runs is emitted at absorption instead.
	Rec *obs.Recorder
	// Ctx, if non-nil, bounds the run: once the context is cancelled or
	// its deadline passes, the run aborts with ErrCanceled/ErrDeadline.
	// The check is amortized onto the step-budget accounting — one
	// ctx.Err() per ctxCheckEvery executed statements — so a live context
	// costs nothing measurable and never changes results.
	Ctx context.Context
	// Checkpoints, if non-nil, captures execution snapshots into the
	// store during the run, for later forked suffix runs. Requires
	// BuildTrace (checkpoints index into the trace); ignored otherwise.
	// A store is bound to the single run that fills it, and to the
	// backend that created it; any other backend ignores it (the run
	// still completes, it just captures nothing). The tree-walker
	// ignores every store.
	Checkpoints Checkpoints
}

// Default limits.
const (
	DefaultStepBudget = 10_000_000
	DefaultMaxFrames  = 4096
	// ctxCheckEvery is the amortization stride of the Options.Ctx check:
	// ctx.Err() is consulted once per this many executed statements
	// (power of two, so the check is a mask on the step counter).
	ctxCheckEvery = 1024
)

// Sentinel runtime errors. A Result.Err wraps one of these.
var (
	ErrBudget    = errors.New("step budget exceeded")
	ErrFrames    = errors.New("activation depth exceeded")
	ErrDivZero   = errors.New("division by zero")
	ErrBounds    = errors.New("array index out of bounds")
	ErrShift     = errors.New("shift count out of range")
	ErrAssert    = errors.New("assertion failed")
	ErrInterrupt = errors.New("interpreter aborted")
)

// Cancellation sentinels: a run cut short by its Options.Ctx reports one
// of these. Each wraps the corresponding context sentinel, so both
// errors.Is(err, ErrDeadline) and errors.Is(err,
// context.DeadlineExceeded) hold on the same chain.
var (
	ErrDeadline = fmt.Errorf("run deadline exceeded: %w", context.DeadlineExceeded)
	ErrCanceled = fmt.Errorf("run canceled: %w", context.Canceled)
)

// CtxErr maps a context error onto the cancellation sentinels (nil in,
// nil out).
func CtxErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadline
	default:
		return ErrCanceled
	}
}

// IsCancellation reports whether err's chain stems from context
// cancellation or deadline expiry — the errors for which a partial
// result is expected rather than a defect.
func IsCancellation(err error) bool {
	return errors.Is(err, ErrDeadline) || errors.Is(err, ErrCanceled)
}

// RuntimeError wraps a sentinel error with source position context.
type RuntimeError struct {
	Pos  token.Pos
	Stmt int // statement ID, 0 if unknown
	Err  error
}

// Error implements the error interface.
func (e *RuntimeError) Error() string {
	if e.Stmt != 0 {
		return fmt.Sprintf("%s (S%d): %v", e.Pos, e.Stmt, e.Err)
	}
	return fmt.Sprintf("%s: %v", e.Pos, e.Err)
}

// Unwrap exposes the sentinel for errors.Is.
func (e *RuntimeError) Unwrap() error { return e.Err }

// Result is the outcome of one run.
type Result struct {
	// Trace is the full trace in BuildTrace mode, nil otherwise.
	Trace *trace.Trace
	// Outputs are the printed int values, in order. In trace mode the
	// Entry/Arg fields identify the producing instance; in plain mode
	// Entry is -1.
	Outputs []trace.Output
	// Rendered is the program's formatted text output.
	Rendered string
	// Steps is the number of executed statement instances.
	Steps int
	// Steps is inherited from the checkpoint on runs forked by
	// Backend.RunSwitchedFrom, so budget expiry fires at the same
	// absolute step count as a full run; ResumedAt records that inherited
	// count (Steps - ResumedAt is the executed suffix). 0 for full runs.
	ResumedAt int
	// SwitchApplied reports whether the SwitchPlan's instance was reached.
	SwitchApplied bool
	// PerturbApplied reports whether the PerturbPlan's instance was reached.
	PerturbApplied bool
	// Err is nil for a clean exit, or a *RuntimeError.
	Err error
}

// OutputValues returns just the printed values.
func (r *Result) OutputValues() []int64 {
	vals := make([]int64, len(r.Outputs))
	for i, o := range r.Outputs {
		vals[i] = o.Value
	}
	return vals
}

// Run executes the program.
func Run(c *Compiled, opts Options) *Result {
	ip := &interp{
		c:         c,
		input:     opts.Input,
		plan:      opts.Switch,
		perturb:   opts.Perturb,
		maxFrames: opts.MaxFrames,
		occ:       make([]int, c.Info.NumStmts()+1),
		res:       &Result{},
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			// Already expired: report without executing a single statement,
			// so a dead context can never produce partial output.
			ip.res.Err = &RuntimeError{Err: CtxErr(err)}
			return ip.res
		}
	}
	budget := opts.StepBudget
	if budget <= 0 {
		budget = DefaultStepBudget
	}
	if ip.maxFrames <= 0 {
		ip.maxFrames = DefaultMaxFrames
	}
	ip.meter = NewStepMeter(&ip.res.Steps, budget, opts.Ctx, false)
	if opts.BuildTrace {
		ip.tr = trace.New()
		ip.res.Trace = ip.tr
	}
	if opts.Rec.Enabled() {
		mode := "plain"
		if opts.BuildTrace {
			mode = "trace"
		}
		opts.Rec.Begin("interp_run", "mode", mode)
		defer func() { opts.Rec.End("interp_run", int64(ip.res.Steps)) }()
	}
	ip.run()
	if ip.tr != nil {
		ip.tr.Finish()
	}
	ip.res.Rendered = ip.out.String()
	return ip.res
}

// ---------------------------------------------------------------------------
// Interpreter state

type cell struct {
	val int64
	def int // trace index of last writer, trace.NoDef if none
}

// frame holds one activation's storage: dense slot-indexed cell slices
// (see sem.Symbol.Slot) rather than maps, for cheap access on the
// interpreter's hot path.
type frame struct {
	id         int // unique activation ID (0 = globals, 1 = main, then dense)
	scalars    []cell
	arrays     [][]cell
	callParent int // trace index of the call-site entry, -1 for main/globals
	ctrl       []ctrlEntry
}

// newFrame allocates a frame with nslots cells, all marked undefined.
func newFrame(id, nslots, callParent int) *frame {
	f := &frame{
		id:         id,
		scalars:    make([]cell, nslots),
		arrays:     make([][]cell, nslots),
		callParent: callParent,
	}
	for i := range f.scalars {
		f.scalars[i].def = trace.NoDef
	}
	return f
}

type ctrlEntry struct {
	entryIdx int
	ipdom    *cfg.Node
}

type interp struct {
	c         *Compiled
	input     []int64
	inPos     int
	plan      *SwitchPlan
	perturb   *PerturbPlan
	maxFrames int
	meter     StepMeter // budget + ctx-poll accounting (counts into res.Steps)

	tr      *trace.Trace // nil in plain mode
	occ     []int        // per-statement occurrence counts
	frames  []*frame
	nextAct int // next activation ID
	out     strings.Builder
	res     *Result

	curEntry int // trace index of the entry being built, -1 outside
}

// abort is the panic payload used to unwind on runtime errors.
type abort struct{ err *RuntimeError }

func (ip *interp) fail(pos token.Pos, stmt int, err error) {
	panic(abort{&RuntimeError{Pos: pos, Stmt: stmt, Err: err}})
}

func (ip *interp) frame() *frame { return ip.frames[len(ip.frames)-1] }

func (ip *interp) run() {
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(abort); ok {
				ip.res.Err = a.err
				return
			}
			panic(r)
		}
	}()

	// Frame 0: globals.
	g := newFrame(0, ip.c.Info.NumGlobalSlots, -1)
	ip.nextAct = 1
	ip.frames = append(ip.frames, g)
	ip.curEntry = -1
	for _, d := range ip.c.Prog.Globals {
		ip.execStmt(d)
	}

	// Frame 1: main. curEntry must be reset so main's top-level
	// statements become region roots rather than children of the last
	// global declaration.
	ip.curEntry = -1
	main := ip.c.Info.Funcs["main"]
	ip.callFunction(main, nil, token.Pos{Line: 1, Col: 1})
}

// ---------------------------------------------------------------------------
// Statements

type signal int

const (
	sigNormal signal = iota
	sigBreak
	sigContinue
	sigReturn
)

// beginStmt handles control-stack maintenance, budget accounting and
// entry creation for the execution of one instance of s. It returns the
// trace index of the new entry (-1 in plain mode).
func (ip *interp) beginStmt(s ast.Numbered) int {
	if err := ip.meter.Tick(); err != nil {
		ip.fail(s.Pos(), s.ID(), err)
	}
	id := s.ID()
	ip.occ[id]++

	node := ip.c.CFG.NodeOf(id)
	fr := ip.frame()
	for node != nil && len(fr.ctrl) > 0 && fr.ctrl[len(fr.ctrl)-1].ipdom == node {
		fr.ctrl = fr.ctrl[:len(fr.ctrl)-1]
	}

	if ip.tr == nil {
		ip.curEntry = -1
		return -1
	}
	parent := fr.callParent
	if len(fr.ctrl) > 0 {
		parent = fr.ctrl[len(fr.ctrl)-1].entryIdx
	}
	idx := ip.tr.Append(trace.Entry{
		Inst:   trace.Instance{Stmt: id, Occ: ip.occ[id]},
		Frame:  fr.id,
		Parent: parent,
	})
	ip.curEntry = idx
	return idx
}

func (ip *interp) entry(idx int) *trace.Entry {
	return ip.tr.At(idx)
}

func (ip *interp) recordDef(idx int, sym *sem.Symbol, elem int64, val int64) {
	if idx < 0 {
		return
	}
	e := ip.entry(idx)
	e.Defs = append(e.Defs, trace.DefRec{Sym: sym.ID, Elem: elem})
	e.Value = val
}

// pushCtrl opens the region of a predicate instance.
func (ip *interp) pushCtrl(stmtID, entryIdx int) {
	node := ip.c.CFG.NodeOf(stmtID)
	fr := ip.frame()
	fr.ctrl = append(fr.ctrl, ctrlEntry{entryIdx: entryIdx, ipdom: node.IPDom})
}

func (ip *interp) execBlock(b *ast.BlockStmt) (signal, int64) {
	for _, s := range b.Stmts {
		if sig, v := ip.execStmt(s); sig != sigNormal {
			return sig, v
		}
	}
	return sigNormal, 0
}

func (ip *interp) execStmt(s ast.Stmt) (signal, int64) {
	switch n := s.(type) {
	case *ast.BlockStmt:
		return ip.execBlock(n)

	case *ast.VarDeclStmt:
		idx := ip.beginStmt(n)
		sym := ip.c.Info.Uses[n.Name]
		if sym.IsArray {
			arr := make([]cell, sym.Size)
			for i := range arr {
				arr[i].def = idxOrNoDef(idx)
			}
			ip.targetFrame(sym).arrays[sym.Slot] = arr
			ip.recordDef(idx, sym, trace.ScalarElem, 0)
			return sigNormal, 0
		}
		var v int64
		if n.Init != nil {
			v = ip.evalExpr(n.Init, idx)
			idx = ip.curEntry // callee entries may have shifted curEntry back
		}
		v = ip.maybePerturb(n, v)
		ip.targetFrame(sym).scalars[sym.Slot] = cell{val: v, def: idxOrNoDef(idx)}
		ip.recordDef(idx, sym, trace.ScalarElem, v)
		return sigNormal, 0

	case *ast.AssignStmt:
		idx := ip.beginStmt(n)
		ip.execAssign(n, idx)
		return sigNormal, 0

	case *ast.IfStmt:
		idx := ip.beginStmt(n)
		taken := ip.evalCond(n, n.Cond, idx)
		ip.pushCtrl(n.ID(), idx)
		if taken {
			return ip.execBlock(n.Then)
		}
		if n.Else != nil {
			return ip.execStmt(n.Else)
		}
		return sigNormal, 0

	case *ast.WhileStmt:
		for {
			idx := ip.beginStmt(n)
			taken := ip.evalCond(n, n.Cond, idx)
			ip.pushCtrl(n.ID(), idx)
			if !taken {
				return sigNormal, 0
			}
			sig, v := ip.execBlock(n.Body)
			switch sig {
			case sigBreak:
				return sigNormal, 0
			case sigReturn:
				return sigReturn, v
			}
		}

	case *ast.ForStmt:
		if n.Init != nil {
			ip.execStmt(n.Init)
		}
		for {
			idx := ip.beginStmt(n)
			taken := true
			if n.Cond != nil {
				taken = ip.evalCond(n, n.Cond, idx)
			} else {
				ip.recordPredicate(n, idx, true) // unconditional iteration
			}
			ip.pushCtrl(n.ID(), idx)
			if !taken {
				return sigNormal, 0
			}
			sig, v := ip.execBlock(n.Body)
			switch sig {
			case sigBreak:
				return sigNormal, 0
			case sigReturn:
				return sigReturn, v
			}
			if n.Post != nil {
				ip.execStmt(n.Post)
			}
		}

	case *ast.BreakStmt:
		ip.beginStmt(n)
		return sigBreak, 0

	case *ast.ContinueStmt:
		ip.beginStmt(n)
		return sigContinue, 0

	case *ast.ReturnStmt:
		idx := ip.beginStmt(n)
		var v int64
		if n.Value != nil {
			v = ip.evalExpr(n.Value, idx)
			idx = ip.curEntry
			if idx >= 0 {
				ip.entry(idx).Value = v
			}
		}
		return sigReturn, v

	case *ast.ExprStmt:
		idx := ip.beginStmt(n)
		ip.evalExpr(n.X, idx)
		return sigNormal, 0

	case *ast.PrintStmt:
		idx := ip.beginStmt(n)
		arg := 0
		for _, a := range n.Args {
			if lit, ok := a.(*ast.StringLit); ok {
				ip.out.WriteString(lit.Value)
				continue
			}
			v := ip.evalExpr(a, idx)
			idx = ip.curEntry
			fmt.Fprintf(&ip.out, "%d", v)
			o := trace.Output{Seq: len(ip.res.Outputs), Entry: idxOrNoDef(idx), Arg: arg, Value: v}
			ip.res.Outputs = append(ip.res.Outputs, o)
			if ip.tr != nil {
				ip.tr.Outputs = append(ip.tr.Outputs, o)
			}
			arg++
		}
		ip.out.WriteByte('\n')
		return sigNormal, 0
	}
	panic(fmt.Sprintf("interp: unexpected statement %T", s))
}

// maybePerturb applies the PerturbPlan if it targets this instance of s.
func (ip *interp) maybePerturb(s ast.Numbered, v int64) int64 {
	if ip.perturb != nil && ip.perturb.Stmt == s.ID() && ip.perturb.Occ == ip.occ[s.ID()] {
		ip.res.PerturbApplied = true
		return ip.perturb.Value
	}
	return v
}

// idxOrNoDef converts a trace index (-1 in plain mode) to a def marker.
func idxOrNoDef(idx int) int {
	if idx < 0 {
		return trace.NoDef
	}
	return idx
}

// evalCond evaluates a predicate's condition, applies the switch plan if
// it targets this instance, records the effective outcome, and opens no
// region (the caller does).
func (ip *interp) evalCond(s ast.Numbered, cond ast.Expr, idx int) bool {
	v := ip.evalExpr(cond, idx)
	idx = ip.curEntry
	taken := v != 0
	if ip.plan != nil && ip.plan.Stmt == s.ID() && ip.plan.Occ == ip.occ[s.ID()] {
		taken = !taken
		ip.res.SwitchApplied = true
		if idx >= 0 {
			ip.entry(idx).Switched = true
		}
	}
	ip.recordPredicate(s, idx, taken)
	return taken
}

func (ip *interp) recordPredicate(s ast.Numbered, idx int, taken bool) {
	if idx < 0 {
		return
	}
	e := ip.entry(idx)
	if taken {
		e.Branch = cfg.True
		e.Value = 1
	} else {
		e.Branch = cfg.False
		e.Value = 0
	}
}

func (ip *interp) execAssign(n *ast.AssignStmt, idx int) {
	rhs := ip.evalExpr(n.RHS, idx)
	idx = ip.curEntry

	switch lhs := n.LHS.(type) {
	case *ast.Ident:
		sym := ip.c.Info.Uses[lhs]
		c := ip.scalarCell(sym, lhs.Pos())
		v := rhs
		if op := n.Op.AssignOp(); op != token.ILLEGAL {
			// compound assignment reads the old value
			ip.recordUse(idx, sym, trace.ScalarElem, c.def, c.val)
			v = ip.binop(op, c.val, rhs, n.Pos(), n.ID())
		}
		v = ip.maybePerturb(n, v)
		c.val = v
		c.def = idxOrNoDef(idx)
		ip.recordDef(idx, sym, trace.ScalarElem, v)

	case *ast.IndexExpr:
		sym := ip.c.Info.Uses[lhs.X]
		i := ip.evalExpr(lhs.Index, idx)
		idx = ip.curEntry
		arr := ip.arrayCells(sym, lhs.Pos())
		if i < 0 || i >= int64(len(arr)) {
			ip.fail(lhs.Pos(), n.ID(), fmt.Errorf("%w: %s[%d] (size %d)", ErrBounds, sym.Name, i, len(arr)))
		}
		v := rhs
		if op := n.Op.AssignOp(); op != token.ILLEGAL {
			ip.recordUse(idx, sym, i, arr[i].def, arr[i].val)
			v = ip.binop(op, arr[i].val, rhs, n.Pos(), n.ID())
		}
		v = ip.maybePerturb(n, v)
		arr[i].val = v
		arr[i].def = idxOrNoDef(idx)
		ip.recordDef(idx, sym, i, v)
	}
}

// ---------------------------------------------------------------------------
// Cells

// targetFrame returns the frame where sym's cell lives (declaration site).
func (ip *interp) targetFrame(sym *sem.Symbol) *frame {
	if sym.Kind == sem.Global {
		return ip.frames[0]
	}
	return ip.frame()
}

func (ip *interp) scalarCell(sym *sem.Symbol, pos token.Pos) *cell {
	return &ip.targetFrame(sym).scalars[sym.Slot]
}

func (ip *interp) arrayCells(sym *sem.Symbol, pos token.Pos) []cell {
	fr := ip.targetFrame(sym)
	arr := fr.arrays[sym.Slot]
	if arr == nil {
		// Declared but its var statement not yet executed (a use cannot
		// precede the declaration lexically, but a loop re-entry may hit
		// stale state): zero-initialized.
		arr = make([]cell, sym.Size)
		for i := range arr {
			arr[i].def = trace.NoDef
		}
		fr.arrays[sym.Slot] = arr
	}
	return arr
}

func (ip *interp) recordUse(idx int, sym *sem.Symbol, elem int64, def int, val int64) {
	if idx < 0 {
		return
	}
	e := ip.entry(idx)
	e.Uses = append(e.Uses, trace.UseRec{Sym: sym.ID, Elem: elem, Def: def, Val: val})
}

// ---------------------------------------------------------------------------
// Expressions

func (ip *interp) evalExpr(e ast.Expr, idx int) int64 {
	switch x := e.(type) {
	case *ast.IntLit:
		return x.Value
	case *ast.StringLit:
		return 0 // only legal inside print, handled there
	case *ast.Ident:
		sym := ip.c.Info.Uses[x]
		c := ip.scalarCell(sym, x.Pos())
		ip.recordUse(idx, sym, trace.ScalarElem, c.def, c.val)
		return c.val
	case *ast.IndexExpr:
		sym := ip.c.Info.Uses[x.X]
		i := ip.evalExpr(x.Index, idx)
		arr := ip.arrayCells(sym, x.Pos())
		if i < 0 || i >= int64(len(arr)) {
			ip.fail(x.Pos(), 0, fmt.Errorf("%w: %s[%d] (size %d)", ErrBounds, sym.Name, i, len(arr)))
		}
		ip.recordUse(idx, sym, i, arr[i].def, arr[i].val)
		return arr[i].val
	case *ast.UnaryExpr:
		v := ip.evalExpr(x.X, idx)
		switch x.Op {
		case token.SUB:
			return -v
		case token.NOT:
			if v == 0 {
				return 1
			}
			return 0
		case token.TILD:
			return ^v
		}
	case *ast.BinaryExpr:
		// Short-circuit: the unevaluated side contributes no dynamic uses.
		switch x.Op {
		case token.LAND:
			if ip.evalExpr(x.X, idx) == 0 {
				return 0
			}
			return b2i(ip.evalExpr(x.Y, idx) != 0)
		case token.LOR:
			if ip.evalExpr(x.X, idx) != 0 {
				return 1
			}
			return b2i(ip.evalExpr(x.Y, idx) != 0)
		}
		a := ip.evalExpr(x.X, idx)
		b := ip.evalExpr(x.Y, idx)
		return ip.binop(x.Op, a, b, x.Pos(), 0)
	case *ast.CallExpr:
		return ip.evalCall(x, idx)
	}
	panic(fmt.Sprintf("interp: unexpected expression %T", e))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (ip *interp) binop(op token.Kind, a, b int64, pos token.Pos, stmt int) int64 {
	switch op {
	case token.ADD:
		return a + b
	case token.SUB:
		return a - b
	case token.MUL:
		return a * b
	case token.QUO:
		if b == 0 {
			ip.fail(pos, stmt, ErrDivZero)
		}
		return a / b
	case token.REM:
		if b == 0 {
			ip.fail(pos, stmt, ErrDivZero)
		}
		return a % b
	case token.AND:
		return a & b
	case token.OR:
		return a | b
	case token.XOR:
		return a ^ b
	case token.SHL:
		if b < 0 || b > 63 {
			ip.fail(pos, stmt, ErrShift)
		}
		return a << uint(b)
	case token.SHR:
		if b < 0 || b > 63 {
			ip.fail(pos, stmt, ErrShift)
		}
		return a >> uint(b)
	case token.EQL:
		return b2i(a == b)
	case token.NEQ:
		return b2i(a != b)
	case token.LSS:
		return b2i(a < b)
	case token.LEQ:
		return b2i(a <= b)
	case token.GTR:
		return b2i(a > b)
	case token.GEQ:
		return b2i(a >= b)
	}
	panic(fmt.Sprintf("interp: unexpected binary op %v", op))
}

func (ip *interp) evalCall(call *ast.CallExpr, idx int) int64 {
	name := call.Fun.Name
	if _, ok := sem.Builtins[name]; ok {
		return ip.evalBuiltin(call, idx)
	}
	fi := ip.c.Info.Funcs[name]
	args := make([]int64, len(call.Args))
	for i, a := range call.Args {
		args[i] = ip.evalExpr(a, idx)
	}
	v, retIdx := ip.callFunction(fi, args, call.Pos())
	ip.curEntry = idx // restore: callee statements moved it
	if retIdx >= 0 {
		ip.recordUse(idx, &sem.Symbol{ID: trace.RetvalSym}, trace.ScalarElem, retIdx, v)
	}
	return v
}

// callFunction pushes a frame, binds parameters (defined by the call-site
// entry), executes the body, and returns the return value and the trace
// index of the return entry (-1 if none).
func (ip *interp) callFunction(fi *sem.FuncInfo, args []int64, pos token.Pos) (int64, int) {
	if len(ip.frames) >= ip.maxFrames {
		ip.fail(pos, 0, ErrFrames)
	}
	callSite := ip.curEntry
	fr := newFrame(ip.nextAct, fi.NumSlots(), callSite)
	ip.nextAct++
	for i, p := range fi.Params {
		fr.scalars[p.Slot] = cell{val: args[i], def: idxOrNoDef(callSite)}
		if callSite >= 0 {
			ip.entry(callSite).Defs = append(ip.entry(callSite).Defs,
				trace.DefRec{Sym: p.ID, Elem: trace.ScalarElem})
		}
	}
	ip.frames = append(ip.frames, fr)
	sig, v := ip.execBlock(fi.Decl.Body)
	retIdx := -1
	if sig == sigReturn && ip.tr != nil {
		retIdx = ip.curEntry // points at the return entry... not guaranteed
	}
	ip.frames = ip.frames[:len(ip.frames)-1]
	return v, retIdx
}

func (ip *interp) evalBuiltin(call *ast.CallExpr, idx int) int64 {
	name := call.Fun.Name
	switch name {
	case "read":
		if ip.inPos >= len(ip.input) {
			return -1
		}
		v := ip.input[ip.inPos]
		ip.inPos++
		return v
	case "peek":
		if ip.inPos >= len(ip.input) {
			return -1
		}
		return ip.input[ip.inPos]
	case "eof":
		return b2i(ip.inPos >= len(ip.input))
	case "len":
		id := call.Args[0].(*ast.Ident)
		sym := ip.c.Info.Uses[id]
		return sym.Size
	case "abs":
		v := ip.evalExpr(call.Args[0], idx)
		if v < 0 {
			return -v
		}
		return v
	case "min":
		a := ip.evalExpr(call.Args[0], idx)
		b := ip.evalExpr(call.Args[1], idx)
		if a < b {
			return a
		}
		return b
	case "max":
		a := ip.evalExpr(call.Args[0], idx)
		b := ip.evalExpr(call.Args[1], idx)
		if a > b {
			return a
		}
		return b
	case "assert":
		v := ip.evalExpr(call.Args[0], idx)
		if v == 0 {
			ip.fail(call.Pos(), 0, ErrAssert)
		}
		return v
	}
	panic(fmt.Sprintf("interp: unexpected builtin %s", name))
}
