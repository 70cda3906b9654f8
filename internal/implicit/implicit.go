// Package implicit implements implicit-dependence verification by
// predicate switching (Definitions 2 and 4 and the VerifyDep procedure of
// Algorithm 2 in the PLDI 2007 paper).
//
// Given a failing execution E, a predicate instance p and a use instance
// u with no explicit dependence path between them, the program is
// re-executed with p's branch outcome inverted; the alignment algorithm
// then looks for the counterparts p', u' (and o', the wrong output's
// counterpart) in the switched execution E'. The verdict is:
//
//	STRONG_ID  o' exists and carries the expected correct value vexp
//	           (Definition 4) — the switch repaired the failure;
//	ID         u' does not exist (condition (i) of Definition 2), or u'
//	           exists and its reaching definition d' lies inside p''s
//	           region (the data-dependence-EDGE approximation of
//	           condition (ii) used by Algorithm 2);
//	NOT_ID     otherwise, or when the switched run exceeds its step
//	           budget (the paper's verification timer).
//
// The edge approximation is deliberately unsafe (§3.1 of the paper); the
// PathMode option implements the safe explicit-dependence-PATH variant
// for the edges-vs-paths ablation.
//
// The switched re-execution is the hot path. Two seams control its cost:
// the Runner interface hands the run to a scheduling/caching layer
// (internal/verifyengine), and the Checkpoints store makes inline runs —
// and, through RunSwitchedFrom, the engine's runs — fork from snapshots
// of the failing run instead of replaying from the start
// (docs/CHECKPOINT.md). Both are transparent: every verdict, counter and
// log entry is identical with or without them.
package implicit

import (
	"context"
	"errors"
	"fmt"

	"eol/internal/align"
	"eol/internal/backend"
	"eol/internal/depgraph"
	"eol/internal/interp"
	"eol/internal/obs"
	"eol/internal/region"
	"eol/internal/trace"
)

// Verdict is the outcome of one verification.
type Verdict int

// Verdicts, in increasing strength.
const (
	NotID Verdict = iota
	ID
	StrongID
)

// String names the verdict in the paper's notation.
func (v Verdict) String() string {
	switch v {
	case NotID:
		return "NOT_ID"
	case ID:
		return "ID"
	case StrongID:
		return "STRONG_ID"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Verifier verifies implicit dependences for one failing execution.
//
// A Verifier is not safe for concurrent use: Verify mutates the counters,
// the log and the verdict memo. Concurrent schedulers (see
// internal/verifyengine) give each worker a Clone and replay the results
// into one base Verifier with Absorb, which keeps the observable state —
// Verifications, Log order, memo — identical to a sequential run.
type Verifier struct {
	C     *interp.Compiled
	Input []int64
	Orig  *trace.Trace

	// WrongOut is the first wrong output of the failing run.
	WrongOut trace.Output
	// Vexp is the expected correct value at the wrong output, if known.
	Vexp    int64
	HasVexp bool

	// PathMode, when set, uses explicit dependence *paths* between p' and
	// u' (the letter of Definition 2) instead of single data-dependence
	// edges out of p''s region (Algorithm 2's approximation).
	PathMode bool

	// Runner, if non-nil, supplies the switched re-executions — the seam
	// where a scheduling/caching layer (internal/verifyengine) plugs in.
	// When nil the interpreter is invoked inline.
	Runner SwitchedRunner

	// Ctx, if non-nil, bounds the verifier's own re-executions (the
	// inline switched runs and the perturbation runs). A Runner is
	// expected to carry its own context; this field covers the paths that
	// invoke the interpreter directly. Copied by Clone.
	Ctx context.Context

	// Backend selects the execution engine for the verifier's switched
	// re-executions (nil = backend.Default(), the VM). core passes
	// Spec.Backend through; only tests and eolbench's oracle pass pick
	// the tree-walker. It must be the backend that produced Orig and
	// Checkpoints: backends are byte-identical, so any mix yields the
	// same verdicts, but a foreign checkpoint store cannot be forked and
	// every run would pay full-replay cost. Copied by Clone.
	Backend interp.Backend

	// Checkpoints, if non-nil, holds execution snapshots captured during
	// the failing run by Backend (vm.Store; the tree-walker has none).
	// Inline switched runs then fork from the nearest
	// checkpoint at or before the switched instance and re-execute only
	// the suffix — byte-identical results, a fraction of the steps
	// (docs/CHECKPOINT.md). Read-only after the failing run, so it is
	// shared by Clone and safe across workers.
	Checkpoints interp.Checkpoints

	// Rec, if non-nil, receives a "verdict" mark for every fresh
	// verification recorded. It is only consulted from the sequential
	// record path (Verify / Absorb on the base verifier) and is
	// deliberately not copied by Clone, so worker goroutines never emit.
	Rec *obs.Recorder

	// Verifications counts the re-executions performed.
	Verifications int

	// Log records every verification performed, in order.
	Log []LogEntry

	// memo memoizes verdicts per (pred instance, use instance, location).
	memo map[MemoKey]Verdict
}

// SwitchedRunner supplies switched re-executions of the verifier's
// program on its failing input. Implementations must be safe for
// concurrent use; the returned Result (and its trace) must be treated as
// read-only by callers, since a caching runner shares it.
type SwitchedRunner interface {
	// SwitchedRun returns the (possibly cached) result of re-executing
	// with pred's branch outcome inverted, bounded by budget steps.
	SwitchedRun(pred trace.Instance, budget int) *interp.Result
}

// MemoKey identifies one verification judgment: the dependence pair
// (p, u) plus the used location. Within one failing execution, requests
// with equal keys have equal verdicts, so the key is what Verify
// memoizes on — and what batch schedulers deduplicate on.
type MemoKey struct {
	pred trace.Instance
	use  trace.Instance
	sym  int
	elem int64
}

// MemoKey returns the memoization key of req.
func (v *Verifier) MemoKey(req Request) MemoKey {
	return MemoKey{
		pred: v.Orig.At(req.Pred).Inst,
		use:  v.Orig.At(req.Use).Inst,
		sym:  req.UseSym,
		elem: req.UseElem,
	}
}

// LogEntry records one verification for reporting.
type LogEntry struct {
	Pred    trace.Instance
	Use     trace.Instance
	Sym     int
	Verdict Verdict
	// Perturbed marks value-perturbation verifications; Value is the
	// witnessing replacement value when Verdict != NotID.
	Perturbed bool
	Value     int64
}

// Request identifies one dependence to verify: does use entry Use
// implicitly depend on predicate instance Pred (both trace indices into
// the original execution)? UseSym/UseElem select which use of the entry
// is in question (the location whose definition could have differed).
type Request struct {
	Pred    int
	Use     int
	UseSym  int
	UseElem int64
}

// Result carries the verdict's evidence for reporting.
type Result struct {
	Verdict  Verdict
	Switched *interp.Result // the switched run
	UPrime   int            // matched use entry in E', -1 if none
	OPrime   int            // matched wrong-output entry in E', -1 if none
	OValue   int64          // value printed at o', if OPrime >= 0
	// AlignRegions counts the region steps walked by the alignment
	// algorithm for this verification — a pure function of the traces,
	// so it is deterministic regardless of which worker computed it.
	AlignRegions int
}

// Verify runs one verification re-execution and classifies the
// dependence. Verdicts are memoized per (p, u, location).
func (v *Verifier) Verify(req Request) Verdict {
	if verdict, ok := v.Memoized(req); ok {
		return verdict
	}
	return v.record(req, v.VerifyDetailed(req).Verdict)
}

// Memoized returns the verdict already recorded for req, if any.
func (v *Verifier) Memoized(req Request) (Verdict, bool) {
	verdict, ok := v.memo[v.MemoKey(req)]
	return verdict, ok
}

// Absorb records a verification result computed elsewhere (typically by
// a worker Clone) as if Verify had produced it here: counted, logged and
// memoized exactly once per key. On a repeated key the earlier verdict
// wins and nothing is counted, mirroring Verify's memo hit. It returns
// the effective verdict.
func (v *Verifier) Absorb(req Request, res *Result) Verdict {
	if verdict, ok := v.Memoized(req); ok {
		return verdict
	}
	v.Verifications++
	return v.record(req, res.Verdict)
}

// record memoizes and logs a fresh verdict for req.
func (v *Verifier) record(req Request, verdict Verdict) Verdict {
	if v.memo == nil {
		v.memo = map[MemoKey]Verdict{}
	}
	pred := v.Orig.At(req.Pred).Inst
	use := v.Orig.At(req.Use).Inst
	v.memo[v.MemoKey(req)] = verdict
	v.Log = append(v.Log, LogEntry{
		Pred: pred, Use: use, Sym: req.UseSym, Verdict: verdict,
	})
	if v.Rec.Enabled() {
		v.Rec.Mark("verdict", int64(verdict),
			"pred", pred.String(), "use", use.String(), "verdict", verdict.String())
	}
	return verdict
}

// Clone returns a Verifier sharing v's immutable configuration (program,
// input, original trace, thresholds, runner) but with fresh counters, log
// and memo. Clones are how concurrent schedulers call VerifyDetailed from
// worker goroutines without racing on v's mutable state; the original
// trace is finished, so its indexes are read-only and clones share it.
func (v *Verifier) Clone() *Verifier {
	return &Verifier{
		C: v.C, Input: v.Input, Orig: v.Orig,
		WrongOut: v.WrongOut, Vexp: v.Vexp, HasVexp: v.HasVexp,
		PathMode: v.PathMode, Runner: v.Runner,
		Ctx: v.Ctx, Backend: v.Backend, Checkpoints: v.Checkpoints,
	}
}

// backend resolves the verifier's execution backend (nil =
// backend.Default()).
func (v *Verifier) backend() interp.Backend {
	if v.Backend != nil {
		return v.Backend
	}
	return backend.Default()
}

// budget is the step bound of every re-execution the verifier runs: ten
// times the failing run's length plus a constant. A run that overruns it
// reads as a failed verification — the paper's timer.
func (v *Verifier) budget() int { return 10*v.Orig.Len() + 1000 }

// RunSwitchedFrom performs the switched re-execution underlying one
// verification on backend b (nil = backend.Default()): run c on input
// with pred's branch outcome inverted, with full tracing, bounded by
// budget steps and by ctx (nil = unbounded). When cks holds a
// checkpoint of b at or before pred's instance in orig (the failing
// run's trace), the switched run forks from it and re-executes only the
// suffix. The result — trace, outputs, verdict-relevant state, step
// count — is byte-identical to a full switched run; only
// Result.ResumedAt reveals the shortcut. Falls back to a full run under
// b when no checkpoint qualifies (nil or foreign store, unknown
// instance, no checkpoint before it, or a budget already spent at the
// checkpoint). Exported so scheduling layers can perform (and cache)
// the expensive part of VerifyDetailed.
func RunSwitchedFrom(ctx context.Context, b interp.Backend, c *interp.Compiled, input []int64, cks interp.Checkpoints, orig *trace.Trace, pred trace.Instance, budget int) *interp.Result {
	if b == nil {
		b = backend.Default()
	}
	opts := interp.Options{
		Input:      input,
		Switch:     &interp.SwitchPlan{Stmt: pred.Stmt, Occ: pred.Occ},
		StepBudget: budget,
		Ctx:        ctx,
	}
	if cks != nil {
		if r := b.RunSwitchedFrom(cks, orig, c, opts); r != nil {
			return r
		}
	}
	opts.BuildTrace = true
	return b.Run(c, opts)
}

// switchedRun obtains the switched run through the Runner seam.
func (v *Verifier) switchedRun(pred trace.Instance, budget int) *interp.Result {
	if v.Runner != nil {
		return v.Runner.SwitchedRun(pred, budget)
	}
	return RunSwitchedFrom(v.Ctx, v.backend(), v.C, v.Input, v.Checkpoints, v.Orig, pred, budget)
}

// VerifyDetailed is Verify without memoization, returning evidence.
func (v *Verifier) VerifyDetailed(req Request) *Result {
	v.Verifications++
	res := &Result{Verdict: NotID, UPrime: -1, OPrime: -1}

	pe := v.Orig.At(req.Pred)
	sw := v.switchedRun(pe.Inst, v.budget())
	res.Switched = sw
	if errors.Is(sw.Err, interp.ErrBudget) {
		// Timer expired: "we aggressively conclude the verification fails".
		return res
	}
	if !sw.SwitchApplied || sw.Trace == nil {
		return res
	}
	ep := sw.Trace

	// Strong implicit dependence: the wrong output's counterpart carries
	// the expected value (Definition 4 via Algorithm 2 lines 27-28).
	if v.HasVexp && v.WrongOut.Entry >= 0 {
		o, ok, walked := align.MatchCounted(v.Orig, ep, pe.Inst, v.WrongOut.Entry)
		res.AlignRegions += walked
		if ok {
			res.OPrime = o
			for _, out := range ep.OutputsOf(o) {
				if out.Arg == v.WrongOut.Arg {
					res.OValue = out.Value
					if out.Value == v.Vexp {
						res.Verdict = StrongID
						return res
					}
				}
			}
		}
	}

	// u': condition (i) of Definition 2.
	u, ok, walked := align.MatchCounted(v.Orig, ep, pe.Inst, req.Use)
	res.AlignRegions += walked
	if !ok {
		res.Verdict = ID
		return res
	}
	res.UPrime = u

	pPrimeIdx := ep.FindInstance(pe.Inst)
	if pPrimeIdx < 0 {
		return res
	}

	if v.PathMode {
		// Safe variant: any explicit dependence path between p' and u'.
		// The graph reads the trace's own records, so building one per
		// switched trace costs nothing.
		if depgraph.New(ep).BackwardSlice(depgraph.Explicit, u).Has(pPrimeIdx) {
			res.Verdict = ID
		}
		return res
	}

	// Algorithm 2 lines 31-35: the reaching definition d' of the use in
	// E' must lie inside Region(p').
	pRegion := region.Region{T: ep, Head: pPrimeIdx}
	for _, use := range ep.Uses(u) {
		if int(use.Sym) != req.UseSym {
			continue
		}
		if use.Def == trace.NoDef {
			continue
		}
		if pRegion.Contains(int(use.Def)) {
			res.Verdict = ID
			return res
		}
	}
	return res
}
