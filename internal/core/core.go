// Package core implements the demand-driven fault localization procedure
// of the PLDI 2007 paper (Algorithm 2, LocateFault): the paper's primary
// contribution.
//
// The procedure interleaves two steps until the root cause enters the
// fault candidate set:
//
//  1. PruneSlicing — confidence analysis plus a scripted interactive
//     pruning pass: candidates are presented in rank order and the user
//     (an Oracle here) marks instances with benign program state, which
//     pins them and re-propagates, until every remaining candidate has
//     corrupted state.
//  2. Expansion — the top-ranked corrupted use u is selected, its
//     potential dependences PD(u) (Definition 1) are verified one by one
//     through predicate switching, and the verified (strong) implicit
//     edges are added to the dependence graph. Strong implicit
//     dependences override plain ones (Algorithm 2 lines 10-11). For
//     every predicate that verified, the other uses potentially
//     depending on it are verified too (Fig. 5: this enables confidence
//     to flow and prune), then the slice is re-pruned.
//
// The run records the effectiveness counters of Table 3: user prunings,
// verifications, iterations, and expanded edges.
//
// # Mapping onto the paper
//
//	Locate            Algorithm 2 LocateFault: failing run, wrong-output
//	                  detection, then the PruneSlicing/Expansion loop
//	locator.pruneSlicing   Algorithm 2 line 3 and line 19 (the scripted
//	                       interactive pass; Oracle = the programmer)
//	locator.expand         Algorithm 2 lines 5-18 (VerifyDep over PD(u),
//	                       verdict grouping, sibling uses of Fig. 5)
//	locator.siblingUses    the "other uses t with p in PD(t)" of line 12
//	Report                 the Table 3 row: UserPrunings, Verifications,
//	                       Iterations, ExpandedEdges, IPS vs OS
//
// # Verification scheduling
//
// Verification — one switched re-execution plus alignment per candidate
// — dominates the procedure's cost (the paper's Table 4 "Verification"
// column). Locate therefore routes every per-iteration batch of
// VerifyDep calls through internal/verifyengine: a bounded worker pool
// with a switched-run cache. Spec.VerifyWorkers and Spec.VerifyCacheSize
// size it. Scheduling is observably side-effect free: verdicts are
// absorbed in deterministic rank order, so Report counters and the
// VerifyLog are byte-identical for any worker count (see
// docs/VERIFICATION_ENGINE.md).
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"eol/internal/backend"
	"eol/internal/check"
	"eol/internal/confidence"
	"eol/internal/depgraph"
	"eol/internal/implicit"
	"eol/internal/interp"
	"eol/internal/obs"
	"eol/internal/slicing"
	"eol/internal/trace"
	"eol/internal/verifyengine"
)

// Oracle abstracts the programmer's two roles in Algorithm 2: judging
// whether a presented instance's program state is benign, and knowing the
// expected value at the failure point (vexp).
type Oracle interface {
	// IsBenign reports whether the program state produced at the given
	// trace entry is correct.
	IsBenign(t *trace.Trace, entry int) bool
}

// ChainOracle is the scripted user of the paper's evaluation protocol:
// instances on the known failure-inducing chain (OS) have corrupted
// state; everything else presented is declared benign.
type ChainOracle struct {
	OS map[trace.Instance]bool
}

// NewChainOracle builds the oracle from the OS instance list.
func NewChainOracle(os []trace.Instance) *ChainOracle {
	m := make(map[trace.Instance]bool, len(os))
	for _, i := range os {
		m[i] = true
	}
	return &ChainOracle{OS: m}
}

// IsBenign implements Oracle.
func (o *ChainOracle) IsBenign(t *trace.Trace, entry int) bool {
	return !o.OS[t.At(entry).Inst]
}

// neverBenign is the default when no Oracle is supplied: no interactive
// pruning happens (every instance is treated as potentially corrupted).
type neverBenign struct{}

// IsBenign always answers false.
func (neverBenign) IsBenign(*trace.Trace, int) bool { return false }

// Spec describes one localization problem.
type Spec struct {
	// Program is the compiled faulty program.
	Program *interp.Compiled
	// Backend selects the execution engine for the failing run and every
	// switched/perturbed re-execution (nil = backend.Default(), the
	// bytecode VM). Production callers leave it nil; differential tests
	// and eolbench's oracle pass set the tree-walker (interp.Tree), the
	// reference the VM is checked against. Backends are byte-identical —
	// same Report counters, VerifyLog, obs journal. The tree-walker has
	// no checkpointed replay: under it every switched run replays in
	// full and the checkpoint counters stay zero.
	Backend interp.Backend
	// Input is the failing input.
	Input []int64
	// Expected is the correct output sequence (from the test oracle).
	Expected []int64
	// RootCause lists the statement IDs that constitute the fault; the
	// search stops when any of them enters the fault candidate set.
	RootCause []int
	// Oracle answers benign-state queries; defaults to an oracle that
	// never prunes.
	Oracle Oracle
	// Profile supplies value ranges for confidence analysis (optional).
	Profile *confidence.Profile
	// MaxIterations bounds the expansion loop (default 10).
	MaxIterations int
	// PathMode selects the safe path-based VerifyDep variant.
	PathMode bool
	// PerturbFallback enables value perturbation (the paper's §5
	// proposal) when predicate switching exposes no dependence — closing
	// the nested-predicate soundness gap of Table 5(b) at extra cost.
	PerturbFallback bool
	// CrossFunctionPD extends potential dependences across function
	// boundaries for globals, so callee-side omissions become reachable
	// (more candidates to verify, fewer blind spots).
	CrossFunctionPD bool
	// VerifyWorkers sizes the verification worker pool: 0 means
	// GOMAXPROCS, 1 forces sequential verification. Any value produces
	// identical Report counters and VerifyLog order; only wall-clock
	// time changes.
	VerifyWorkers int
	// VerifyCacheSize bounds the switched-run cache (entries): 0 means
	// verifyengine.DefaultCacheSize, negative disables caching.
	VerifyCacheSize int
	// VerifyCache optionally shares a switched-run cache across Locate
	// calls (e.g. many localizations of one program family). Overrides
	// VerifyCacheSize.
	VerifyCache *verifyengine.RunCache
	// Disable turns engine features off. Every feature is on outside
	// tests; only _test.go files set Disable, to compare a feature's
	// path against the reference path it replaces.
	Disable Disable
	// Observer, if non-nil, receives the run's observability stream:
	// spans for each localization phase, counter deltas and final stats
	// gauges (see internal/obs and docs/OBSERVABILITY.md). For a fixed
	// cache/skip-filter configuration the stream is byte-identical for
	// any VerifyWorkers value.
	Observer obs.Observer
}

// Disable names the engine features a Spec turns off. Each feature
// changes only the cost of Locate: verdicts, the Table 3 counters,
// VerifyLog and the obs journal are byte-identical with any of them off.
type Disable struct {
	// StaticSkip is the trace-replay skip filter (check.SwitchFilter).
	StaticSkip bool
	// IncrementalReprune is delta re-propagation in confidence analysis.
	IncrementalReprune bool
	// Checkpoints is checkpointed switched replay: the failing run
	// captures up to interp.DefaultCheckpoints snapshots, and switched
	// runs fork from the nearest one.
	Checkpoints bool
}

// Report is the outcome of LocateFault, carrying the Table 3 counters.
type Report struct {
	// Located reports whether a root-cause instance entered the fault
	// candidate set.
	Located bool
	// RootEntry is the trace index of the located root-cause instance.
	RootEntry int

	// Stats aggregates the run's counters: the paper's Table 3 terms
	// (UserPrunings, Verifications, Iterations, ExpandedEdges) plus the
	// verification engine's scheduling and cache counters.
	Stats obs.Stats

	// IPS is the final pruned expanded slice (instances with confidence
	// < 1 in the wrong output's expanded slice). IPSEntries is ranked
	// most-suspicious-first; IPSConfidence holds the matching confidence
	// values.
	IPS           depgraph.SliceStats
	IPSEntries    []int
	IPSConfidence []float64

	// WrongOutput is the failure observation; Vexp its expected value.
	WrongOutput trace.Output
	Vexp        int64

	// VerifyLog records every verification performed, in order.
	VerifyLog []implicit.LogEntry

	// Trace and Graph expose the analyzed execution for reporting.
	Trace *trace.Trace
	Graph *depgraph.Graph
}

// ErrNoFailure is returned when the program's output matches Expected.
var ErrNoFailure = errors.New("program output matches the expected output")

// ErrMissingOutput is returned when the failure is a truncated output
// stream rather than a wrong value; the technique needs a wrong value to
// slice from.
var ErrMissingOutput = errors.New("failure is a missing output, not a wrong value")

// ErrNotLocated reports a localization that completed without the known
// root cause entering the fault candidate set. Locate itself never
// returns it — an unlocated diagnosis is a result, not a failure — but
// corpus drivers and CLIs that treat "expected to locate, didn't" as an
// error use it, and errors.Is finds it through their wrapping.
var ErrNotLocated = errors.New("root cause not located")

// ErrClass names the taxonomy class of a localization error for
// reporting: "deadline", "canceled", "budget", "not_located",
// "no_failure", or "error" for everything else ("" for nil). The names
// are stable — journals and JSON outputs key on them.
func ErrClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, interp.ErrDeadline):
		return "deadline"
	case errors.Is(err, interp.ErrCanceled):
		return "canceled"
	case errors.Is(err, interp.ErrBudget):
		return "budget"
	case errors.Is(err, ErrNotLocated):
		return "not_located"
	case errors.Is(err, ErrNoFailure):
		return "no_failure"
	default:
		return "error"
	}
}

// Locate runs the full demand-driven procedure on spec.
func Locate(spec *Spec) (*Report, error) {
	return LocateContext(context.Background(), spec)
}

// LocateContext is Locate bounded by ctx (nil = background): cancelling
// ctx or passing its deadline aborts the procedure — including in-flight
// switched re-executions on the verification workers — with an error
// wrapping interp.ErrCanceled/ErrDeadline. The returned Report is then
// non-nil and partial: the cost counters (Stats, VerifyLog) reflect the
// work done up to the abort, while Located/IPS stay at their zero
// values. Any attached Observer sees a balanced event stream either way.
func LocateContext(ctx context.Context, spec *Spec) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if spec.Oracle == nil {
		spec.Oracle = neverBenign{}
	}
	maxIter := spec.MaxIterations
	if maxIter <= 0 {
		maxIter = 10
	}

	rec := obs.NewRecorder(spec.Observer)
	rec.Begin("locate")

	bk := spec.Backend
	if bk == nil {
		bk = backend.Default()
	}

	// The failing run ("Graph" construction in Table 4 terms). It also
	// captures the checkpoint store that later switched re-executions
	// fork from (unless disabled). The store is the backend's own
	// representation, so forks restore native execution state.
	var cks interp.Checkpoints
	if !spec.Disable.Checkpoints {
		cks = bk.NewCheckpoints(interp.DefaultCheckpoints)
	}
	rec.Begin("failing_run")
	run := bk.Run(spec.Program, interp.Options{Input: spec.Input, BuildTrace: true, Rec: rec, Ctx: ctx, Checkpoints: cks})
	rec.End("failing_run", int64(run.Steps))
	if run.Err != nil {
		rec.End("locate", 0)
		return &Report{}, fmt.Errorf("failing run aborted: %w", run.Err)
	}
	tr := run.Trace

	seq, missing, ok := slicing.FirstWrongOutput(run.OutputValues(), spec.Expected)
	if !ok {
		rec.End("locate", 0)
		return nil, ErrNoFailure
	}
	if missing {
		rec.End("locate", 0)
		return nil, ErrMissingOutput
	}
	wrong := *tr.OutputAt(seq)
	var correct []trace.Output
	for i := 0; i < seq; i++ {
		correct = append(correct, *tr.OutputAt(i))
	}
	// When the failure is an EXTRA output (the faulty run printed more
	// than expected), there is no expected value at the failure point:
	// strong-implicit-dependence checks are disabled and plain implicit
	// verification carries the run.
	var vexp int64
	hasVexp := seq < len(spec.Expected)
	if hasVexp {
		vexp = spec.Expected[seq]
	}

	rec.Begin("slicing")
	g := depgraph.New(tr)
	cx := slicing.NewContext(spec.Program, tr)
	cx.CrossFunction = spec.CrossFunctionPD
	an := confidence.New(spec.Program, g, spec.Profile, correct, wrong)
	an.Incremental = !spec.Disable.IncrementalReprune
	rec.End("slicing", int64(tr.Len()))
	ver := &implicit.Verifier{
		C: spec.Program, Input: spec.Input, Orig: tr,
		WrongOut: wrong, Vexp: vexp, HasVexp: hasVexp,
		PathMode: spec.PathMode,
		Rec:      rec, Ctx: ctx, Backend: bk, Checkpoints: cks,
	}

	engCfg := verifyengine.Config{
		Workers:   spec.VerifyWorkers,
		CacheSize: spec.VerifyCacheSize,
		Cache:     spec.VerifyCache,
		Rec:       rec,
		Ctx:       ctx,
	}
	// Static skip-filter: answers provably-NOT_ID verifications without a
	// switched run. Unsound under PathMode (taint through allowed suffix
	// writes can create an explicit p'-u' path), so only installed for
	// the default edge-mode verifier. The engine consults it from its
	// planning loop on this goroutine, never concurrently.
	if !spec.Disable.StaticSkip && !spec.PathMode {
		flt := check.NewSwitchFilter(spec.Program, tr, wrong.Entry)
		engCfg.Filter = func(req implicit.Request) bool {
			return flt.ProvablyNotID(req.Pred, req.Use, req.UseSym)
		}
	}
	eng := verifyengine.New(ver, engCfg)

	rep := &Report{WrongOutput: wrong, Vexp: vexp, Trace: tr, Graph: g}

	l := &locator{spec: spec, ctx: ctx, cx: cx, an: an, ver: ver, eng: eng, rep: rep,
		rec: rec, pdCache: map[int][]slicing.PDep{}}

	// Initial PruneSlicing (Algorithm 2 line 3).
	if err := l.pruneSlicing(); err != nil {
		return l.abort(err)
	}

	expanded := map[int]bool{}
	for iter := 0; iter < maxIter; iter++ {
		if l.rootInCandidates() {
			break
		}
		rec.Begin("iteration", "n", strconv.Itoa(iter+1))
		added := false
		var expErr error
		// Select uses u from PS by rank until one yields edges
		// (Algorithm 2 lines 5-18).
		for _, cand := range l.an.FaultCandidates() {
			if expanded[cand.Entry] {
				continue
			}
			expanded[cand.Entry] = true
			ok, err := l.expand(cand.Entry)
			if err != nil {
				expErr = err
				break
			}
			if ok {
				added = true
				break
			}
		}
		if expErr == nil && !added && spec.PerturbFallback {
			added = l.perturbFallback()
			if err := ctx.Err(); err != nil {
				expErr = fmt.Errorf("perturbation fallback aborted: %w", interp.CtxErr(err))
			}
		}
		if expErr != nil {
			rec.End("iteration", 0)
			return l.abort(expErr)
		}
		if !added {
			rec.End("iteration", 0)
			break // no unexpanded candidates produced edges: give up
		}
		rep.Stats.Iterations++
		err := l.pruneSlicing() // Algorithm 2 line 19
		rec.End("iteration", 1)
		if err != nil {
			return l.abort(err)
		}
	}

	l.finish()
	l.finalizeStats()
	var located int64
	if rep.Located {
		located = 1
	}
	rep.Stats.Emit(rec)
	if rec.Enabled() {
		rec.Gauge("located", located)
	}
	rec.End("locate", located)
	return rep, nil
}

type locator struct {
	spec    *Spec
	ctx     context.Context
	cx      *slicing.Context
	an      *confidence.Analyzer
	ver     *implicit.Verifier
	eng     *verifyengine.Engine
	rep     *Report
	rec     *obs.Recorder
	pdCache map[int][]slicing.PDep

	boundaryVals []int64 // memoized perturbation probe values
}

func (l *locator) pd(entry int) []slicing.PDep {
	if pds, ok := l.pdCache[entry]; ok {
		return pds
	}
	pds := l.cx.PotentialDeps(entry)
	l.pdCache[entry] = pds
	return pds
}

// pruneSlicing is the interactive pruning pass: present candidates in
// rank order (Analyzer.Next); benign answers pin the instance and
// re-rank, corrupted answers are remembered (Analyzer.Judge) for the
// rest of the run. It stops when every candidate is judged corrupted.
//
// Each Compute here is a re-prune: after the first pass it re-propagates
// only the cone invalidated by the latest expansion edges and pins
// (unless Disable.IncrementalReprune is set). The dirty-set sizes are
// mode-dependent cost counters and therefore live in Report.Stats
// (Repropagated/DirtyFraction), not in the journal — the reprune span
// itself is emitted identically in both modes.
func (l *locator) pruneSlicing() error {
	l.rec.Begin("reprune")
	l.an.Compute()
	for {
		// One cancellation checkpoint per pinning round: propagation and
		// the oracle calls are pure CPU, so this is where a deadline that
		// fired during slicing or confidence analysis is observed.
		if err := l.ctx.Err(); err != nil {
			l.rec.End("reprune", 0)
			return fmt.Errorf("pruning aborted: %w", interp.CtxErr(err))
		}
		cand, ok := l.an.Next()
		for ok && !l.spec.Oracle.IsBenign(l.cx.T, cand.Entry) {
			l.an.Judge(cand.Entry)
			cand, ok = l.an.Next()
		}
		if !ok {
			l.rec.End("reprune", int64(l.an.NumCandidates()))
			return nil
		}
		l.rep.Stats.UserPrunings++
		l.rec.Count("pruned_entries", 1)
		l.an.Pin(cand.Entry)
		l.an.Compute()
	}
}

// abort finalizes a cancelled run into a usable partial report: the cost
// counters reached so far are filled in, the stats gauges are emitted
// and the locate span is closed, so an attached journal stays balanced
// and Diagnosis.Stats is populated even though no verdict was reached.
func (l *locator) abort(err error) (*Report, error) {
	l.finalizeStats()
	l.rep.Stats.Emit(l.rec)
	if l.rec.Enabled() {
		l.rec.Gauge("located", 0)
	}
	l.rec.End("locate", 0)
	return l.rep, err
}

// finalizeStats folds the verifier's, engine's and analyzer's cost
// counters into the report. Safe on the partial state of an aborted run.
func (l *locator) finalizeStats() {
	rep := l.rep
	rep.Stats.Verifications = l.ver.Verifications
	rep.VerifyLog = l.ver.Log
	es := l.eng.Stats()
	rep.Stats.SwitchedRuns = es.Runs
	rep.Stats.CacheHits = es.CacheHits
	rep.Stats.CacheMisses = es.CacheMisses
	rep.Stats.CacheEvictions = es.CacheEvictions
	rep.Stats.StaticSkips = es.StaticSkips
	rep.Stats.AlignedRegions = es.AlignedRegions
	rep.Stats.CheckpointHits = es.CheckpointHits
	rep.Stats.SuffixSteps = es.SuffixSteps
	if cks := l.ver.Checkpoints; cks != nil {
		cs := cks.Stats()
		rep.Stats.Checkpoints = cs.Count
		rep.Stats.CheckpointBytes = cs.Bytes
	}
	rep.Stats.StrongEdges = rep.Graph.NumExtraEdges(depgraph.StrongImplicit)
	rep.Stats.ImplicitEdges = rep.Graph.NumExtraEdges(depgraph.Implicit)
	passes, reeval := l.an.RepropStats()
	rep.Stats.Repropagated = reeval
	if passes > 0 && l.cx.T.Len() > 0 {
		rep.Stats.DirtyFraction = float64(reeval) / (float64(passes) * float64(l.cx.T.Len()))
	}
}

// rootInCandidates reports whether a root-cause instance is in the
// current fault candidate set, recording the best-ranked one.
func (l *locator) rootInCandidates() bool {
	cand, ok := l.an.FirstCandidate(func(e int) bool {
		stmt := l.cx.T.At(e).Inst.Stmt
		for _, rc := range l.spec.RootCause {
			if stmt == rc {
				return true
			}
		}
		return false
	})
	if ok {
		l.rep.Located = true
		l.rep.RootEntry = cand.Entry
	}
	return ok
}

// expand verifies PD(u) and adds the verified (strong) implicit edges,
// including the sibling uses of each verified predicate (Fig. 5).
// It reports whether any edge was added.
//
// Each wave of VerifyDep calls goes through the engine as one batch: the
// switched re-executions run on the worker pool, and the verdicts come
// back in the batch's own order — PD(u) enumeration order first, then
// per verified predicate the sibling uses in ascending entry order — so
// the log and counters match a sequential pass over the same order.
func (l *locator) expand(u int) (bool, error) {
	pds := l.pd(u)
	if len(pds) == 0 {
		return false, nil
	}

	// Group by verdict (Algorithm 2 lines 6-9).
	reqs := make([]implicit.Request, len(pds))
	for i, pd := range pds {
		reqs[i] = implicit.Request{
			Pred: pd.Pred, Use: u, UseSym: pd.UseSym, UseElem: pd.UseElem,
		}
	}
	vs, err := l.eng.VerifyBatchContext(l.ctx, reqs)
	if err != nil {
		return false, err
	}
	byVerdict := map[implicit.Verdict][]slicing.PDep{}
	for i, v := range vs {
		byVerdict[v] = append(byVerdict[v], pds[i])
	}
	kind := depgraph.StrongImplicit
	verdict := implicit.StrongID
	group := byVerdict[implicit.StrongID]
	if len(group) == 0 {
		kind = depgraph.Implicit
		verdict = implicit.ID
		group = byVerdict[implicit.ID]
	}
	if len(group) == 0 {
		return false, nil
	}

	// Add edges for u itself, then verify sibling uses t with
	// p ∈ PD(t) (Algorithm 2 lines 12-18).
	added := false
	for _, pd := range group {
		l.an.AddEdges(confidence.Arc{From: u, To: pd.Pred, Kind: kind})
		l.rep.Stats.ExpandedEdges++
		added = true
		var sibReqs []implicit.Request
		var sibUse []int
		for _, t := range l.siblingUses(pd.Pred, u) {
			for _, tpd := range l.pd(t) {
				if tpd.Pred != pd.Pred {
					continue
				}
				sibReqs = append(sibReqs, implicit.Request{
					Pred: tpd.Pred, Use: t, UseSym: tpd.UseSym, UseElem: tpd.UseElem,
				})
				sibUse = append(sibUse, t)
			}
		}
		sibVs, err := l.eng.VerifyBatchContext(l.ctx, sibReqs)
		if err != nil {
			return added, err
		}
		for i, v := range sibVs {
			if v == verdict {
				l.an.AddEdges(confidence.Arc{From: sibUse[i], To: pd.Pred, Kind: kind})
				l.rep.Stats.ExpandedEdges++
			}
		}
	}
	return added, nil
}

// siblingUses enumerates other entries t that might potentially depend on
// predicate instance p. To keep verification counts in check it considers
// entries in the wrong output's slice and the correct outputs' closures —
// the entries whose confidence matters for pruning.
func (l *locator) siblingUses(p, u int) []int {
	// The slice snapshot is from the last Compute (by design: candidates
	// were ranked on it); the correct-output closures run over the current
	// graph, including edges added earlier in this expansion.
	relevant := l.an.Slice().Clone()
	for _, o := range l.an.CorrectOuts {
		l.rep.Graph.Extend(relevant, l.an.Kinds, o.Entry)
	}
	var res []int
	// Bitset iteration is ascending entry order — the stable order both
	// the VerifyLog and reproducible batch scheduling need.
	relevant.ForEach(func(e int) {
		if e == u || e <= p {
			return
		}
		res = append(res, e)
	})
	return res
}

// finish computes the final IPS statistics.
func (l *locator) finish() {
	l.an.Compute()
	cands := l.an.FaultCandidates()
	ips := depgraph.NewSet(l.cx.T.Len())
	for _, c := range cands {
		ips.Add(c.Entry)
		l.rep.IPSEntries = append(l.rep.IPSEntries, c.Entry)
		l.rep.IPSConfidence = append(l.rep.IPSConfidence, c.Conf)
	}
	l.rep.IPS = l.rep.Graph.Stats(ips)
	if !l.rep.Located {
		l.rootInCandidates()
	}
}
