package interp

import (
	"context"

	"eol/internal/trace"
)

// Backend is one MiniC execution engine. Two implementations exist: the
// tree-walking reference interpreter in this package (Tree) and the
// bytecode VM in internal/vm. Both honor the same contract — for any
// program, input and Options, they produce byte-identical Results:
// the same trace entries (defs/uses/predicates/parents, step numbering),
// outputs, rendered text, step counts, RuntimeError positions, and
// ErrBudget / ctx-cancellation step semantics. The tree-walker is the
// always-available differential oracle for that contract; see
// docs/VM.md.
type Backend interface {
	// Name identifies the backend ("tree", "vm").
	Name() string
	// Run executes the program under opts. When opts.Checkpoints is a
	// store of a foreign backend the store is ignored (no captures).
	Run(c *Compiled, opts Options) *Result
	// NewCheckpoints returns an empty checkpoint store of this backend's
	// native representation, bounded to max snapshots (<= 0 means
	// DefaultCheckpoints), for use as Options.Checkpoints on a traced
	// run. A backend without checkpointed replay returns nil.
	NewCheckpoints(max int) Checkpoints
	// RunSwitchedFrom is the checkpoint-accelerated switched run: it
	// forks from the nearest snapshot in cks at or before the switched
	// predicate instance in orig and re-executes only the suffix. It
	// returns nil when no snapshot applies (nil/foreign store, predicate
	// not in the trace, no snapshot before it, or a budget the fork
	// could not honor); the caller then falls back to a full Run.
	RunSwitchedFrom(cks Checkpoints, orig *trace.Trace, c *Compiled, opts Options) *Result
}

// Checkpoints is the backend-neutral view of a checkpoint store: a
// backend snapshots its own execution representation (the VM a pc/frame
// stack), so stores are opaque outside their backend and only expose
// their counters. A store must be handed back to the backend that
// created it; a foreign backend ignores it.
type Checkpoints interface {
	// Len returns the number of retained checkpoints.
	Len() int
	// Stats snapshots the store's counters.
	Stats() CheckpointStats
}

// DefaultCheckpoints is the checkpoint-count bound when none is given:
// enough that the expected suffix is a small fraction of the trace,
// small enough that the retained state stays far below one extra trace.
const DefaultCheckpoints = 64

// CheckpointStats snapshots a store's counters.
type CheckpointStats struct {
	// Count and Bytes describe the retained checkpoints: how many
	// survived thinning and (approximately) how much private state they
	// pin.
	Count int
	Bytes int64
	// Captured / Thinned count all capture and thinning events over the
	// run, for tuning the Max bound.
	Captured, Thinned int
}

// Tree is the tree-walking reference backend: the interpreter this
// package implements, wrapped in the Backend interface. It is the
// differential oracle every other backend is pinned against, and it has
// no checkpointed replay: NewCheckpoints returns nil and RunSwitchedFrom
// always declines, so every switched run under Tree replays in full.
var Tree Backend = treeBackend{}

type treeBackend struct{}

func (treeBackend) Name() string { return "tree" }

func (treeBackend) Run(c *Compiled, opts Options) *Result { return Run(c, opts) }

func (treeBackend) NewCheckpoints(int) Checkpoints { return nil }

func (treeBackend) RunSwitchedFrom(Checkpoints, *trace.Trace, *Compiled, Options) *Result {
	return nil
}

// ---------------------------------------------------------------------------
// Step accounting

// StepMeter centralizes the step-budget and context-poll accounting
// shared by every backend, so its two load-bearing invariants hold by
// construction rather than by copy:
//
//   - the budget check precedes the increment, so the step counter is
//     clamped to exactly the budget on expiry — deadline accounting
//     layered on the counter relies on it never overshooting;
//   - ctx.Err() is polled once per ctxCheckEvery executed statements
//     (a mask on the counter), plus unconditionally on the first tick
//     when forceFirstPoll is set — forked runs inherit a step count
//     that is off the poll grid but must still observe a dead context
//     on their first suffix step.
//
// The counter is shared by pointer so the owning run's Result.Steps is
// always current (checkpoint capture policies read it mid-run).
type StepMeter struct {
	steps    *int
	budget   int
	ctx      context.Context // nil = unbounded
	forceCtx bool
}

// NewStepMeter builds a meter over the given counter. budget must
// already be resolved (> 0); ctx may be nil.
func NewStepMeter(steps *int, budget int, ctx context.Context, forceFirstPoll bool) StepMeter {
	return StepMeter{steps: steps, budget: budget, ctx: ctx, forceCtx: forceFirstPoll}
}

// Tick accounts one statement instance about to execute. It returns
// ErrBudget when the budget is already spent (without incrementing) and
// a cancellation sentinel when a poll observes a dead context; a nil
// return means the statement may proceed.
func (m *StepMeter) Tick() error {
	if *m.steps >= m.budget {
		return ErrBudget
	}
	*m.steps++
	if m.ctx != nil && (m.forceCtx || *m.steps&(ctxCheckEvery-1) == 0) {
		m.forceCtx = false
		if err := m.ctx.Err(); err != nil {
			return CtxErr(err)
		}
	}
	return nil
}

// Budget returns the resolved step budget the meter enforces.
func (m *StepMeter) Budget() int { return m.budget }
