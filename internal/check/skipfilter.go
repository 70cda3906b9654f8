// Static skip-filter for predicate-switching verification.
//
// SwitchFilter proves, from the original failing trace plus static facts
// alone — no switched re-execution — that verifying a candidate implicit
// dependence (p, u) must return NOT_ID. The locator can then skip the
// switched run and synthesize the verdict, keeping verdicts, counters and
// the verification log byte-identical while performing fewer runs.
//
// The argument is a whole-execution replay proof. Let E be the failing
// execution and E' the execution with predicate instance p's branch
// inverted. E' shares E's prefix up to p exactly. Inside p's region, E'
// abandons the entries E executed under the taken branch (the dynamic
// region, read off the trace's control-parent relation) and instead
// executes the statements statically control dependent on the opposite
// branch. If the filter can bound both sides' effects — the vanished
// entries' net state change is known from the trace, the new branch's
// writes are evaluated against the reconstructed state at p — then E'
// re-joins E at the region exit with a known set of "tainted" cells whose
// values may differ. A forward taint walk over E's suffix then records
// the first index where the divergence escapes the proof — flips a branch
// outcome, makes a new fault possible, desynchronizes input, survives
// into a call, or reaches the wrong output entry (predFacts.fatalAt;
// trace length when the taint drains harmlessly). Strictly before that
// index E' is provably aligned entry-for-entry with E. The verdict is
// prefix-determined: once u' materializes untainted with its reaching
// definitions outside Region(p') and the wrong output's counterpart o'
// still prints the wrong value, any later outcome — normal completion,
// fault, or budget exhaustion — still yields NOT_ID (edge mode). So a
// verification is skippable when its deciding facts all commit before
// fatalAt.
//
// Anything the filter cannot bound — loops, calls or input consumption in
// the newly executed branch, control escaping the vanished region,
// unprovable fault safety — makes it bail and report "not provable"; it
// never guesses. The filter is unsound for PathMode verification (taint
// flowing through allowed suffix writes can create an explicit p'–u'
// dependence path), so callers must not consult it when PathMode is on.
package check

import (
	"fmt"

	"eol/internal/cfg"
	"eol/internal/dataflow"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/lang/sem"
	"eol/internal/trace"
)

// cellKey identifies one dynamic storage cell: an abstract location
// (symbol + element) in a concrete activation frame. Globals live in
// frame 0; ScalarElem names the scalar cell.
type cellKey struct {
	sym   int
	elem  int64
	frame int
}

// SwitchFilter answers "is this verification provably NOT_ID?" for one
// failing execution. It is not safe for concurrent use; the locator
// consults it from its sequential planning loop.
type SwitchFilter struct {
	c    *interp.Compiled
	flow *dataflow.Analysis
	tr   *trace.Trace
	// wrong is the trace entry index producing the first wrong output.
	// It must match the verifier's WrongOut.Entry; -1 is only sound when
	// the verifier has no expected value (HasVexp false), since without
	// one no verdict can strengthen to StrongID via the wrong output.
	wrong int

	// cursor is a replay of the trace range [0, cursorAt). A predicate
	// at or after cursorAt steps it forward; one before it restarts it
	// from 0. So the prefix is replayed once for queries in trace order.
	cursor   *replay
	cursorAt int
	// frameStart maps each activation frame to its first trace index.
	frameStart []int
	// targetBuf backs replay.targets' result.
	targetBuf []defTarget

	preds map[int]*predFacts       // per pred trace index
	scans map[scanKey]*branchScan  // per (pred stmt, opposite label)
	stmts map[int]*stmtStaticFacts // per statement ID
}

// NewSwitchFilter builds a filter over one failing execution. wrongEntry
// is the trace index of the first wrong output (pass -1 only when the
// verifier runs without an expected value).
func NewSwitchFilter(c *interp.Compiled, tr *trace.Trace, wrongEntry int) *SwitchFilter {
	return &SwitchFilter{
		c: c, flow: dataflow.Of(c), tr: tr,
		wrong: wrongEntry,
		preds: map[int]*predFacts{},
		scans: map[scanKey]*branchScan{},
		stmts: map[int]*stmtStaticFacts{},
	}
}

// ProvablyNotID reports whether switching the predicate instance at trace
// index predIdx provably cannot yield an implicit-dependence verdict for
// the use entry at useIdx on symbol sym — i.e. the switched run would
// certainly return NOT_ID, so it can be skipped. The proof is per
// (predicate instance, use instance, symbol); elements are resolved from
// the use entry's recorded cells.
func (f *SwitchFilter) ProvablyNotID(predIdx, useIdx, sym int) bool {
	if predIdx < 0 || useIdx <= predIdx || useIdx >= f.tr.Len() {
		return false
	}
	pf := f.predAnalysis(predIdx)
	if !pf.ok {
		return false
	}
	// u inside the vanishing region would make u' disappear (verdict ID).
	if useIdx < pf.regionEnd {
		return false
	}
	// u' must materialize before the divergence escapes the proof, and so
	// must the wrong output (a structural divergence before it could
	// re-align o' to an instance printing the expected value). A wrong
	// output at or before the predicate, or inside the vanished region,
	// is prefix-identical or unalignable and cannot turn StrongID.
	if useIdx >= pf.fatalAt {
		return false
	}
	if f.wrong >= pf.regionEnd && f.wrong >= pf.fatalAt {
		return false
	}
	// A tainted use could change elements read or values flowing onward.
	if pf.tainted[useIdx] {
		return false
	}
	// Region(p') in E' contains exactly the new branch's entries; if any
	// of them writes a cell the use reads under sym — even writing the
	// same value — u''s reaching definition moves inside the region and
	// the verdict becomes ID. (Only uses matching the request symbol
	// participate in the verdict.)
	ue := f.tr.At(useIdx)
	for _, rec := range ue.Uses {
		if rec.Sym != sym {
			continue
		}
		if pf.newWrites[f.cellOf(ue, rec.Sym, rec.Elem)] {
			return false
		}
	}
	return true
}

// Reason reports why the predicate instance at predIdx is not provable
// ("" when its analysis succeeded), for diagnostics and tests.
func (f *SwitchFilter) Reason(predIdx int) string {
	if predIdx < 0 || predIdx >= f.tr.Len() {
		return "out of range"
	}
	pf := f.predAnalysis(predIdx)
	if !pf.ok {
		return pf.reason
	}
	if pf.fatalWhy != "" {
		return fmt.Sprintf("provable before index %d (%s)", pf.fatalAt, pf.fatalWhy)
	}
	return ""
}

// cellOf resolves the frame of a cell used or defined by entry e.
func (f *SwitchFilter) cellOf(e *trace.Entry, sym int, elem int64) cellKey {
	if f.c.Info.Symbols[sym].Kind == sem.Global {
		return cellKey{sym, elem, 0}
	}
	return cellKey{sym, elem, e.Frame}
}

// ---------------------------------------------------------------------------
// Per-predicate-instance analysis

// predFacts is the cached outcome of analyzing one switch candidate.
type predFacts struct {
	ok        bool
	reason    string // why the filter bailed, for diagnostics and tests
	regionEnd int    // first trace index after the dynamic region
	// fatalAt is the first suffix index where the divergence escapes the
	// proof — a flipped branch outcome, a possible new fault, desynced
	// input, a tainted call, or taint at the wrong output (trace length
	// when none). E and E' are provably aligned entry-for-entry strictly
	// before it; past it anything may happen, but a verdict whose
	// deciding facts (u', and the wrong output if it matters) all commit
	// before fatalAt is already NOT_ID: budget exhaustion and faults
	// both yield NOT_ID once u' exists, and alignment is prefix-stable.
	fatalAt  int
	fatalWhy string
	// tainted marks pre-fatalAt entries whose produced value may differ.
	tainted map[int]bool
	// newWrites holds every cell the opposite branch may write (including
	// provable no-ops, which still relocate reaching definitions).
	newWrites map[cellKey]bool
}

func bail(reason string) *predFacts { return &predFacts{reason: reason} }

func (f *SwitchFilter) predAnalysis(predIdx int) *predFacts {
	if pf, ok := f.preds[predIdx]; ok {
		return pf
	}
	pf := f.analyze(predIdx)
	f.preds[predIdx] = pf
	return pf
}

func (f *SwitchFilter) analyze(predIdx int) *predFacts {
	pe := f.tr.At(predIdx)
	if pe.Branch != cfg.True && pe.Branch != cfg.False {
		return bail("not a predicate instance")
	}
	ps := pe.Inst.Stmt
	scan := f.branchStmts(ps, pe.Branch.Negate())
	if !scan.ok {
		return bail("opposite branch: " + scan.reason)
	}

	// Phase 1: replay E up to the predicate to reconstruct machine state,
	// then through the dynamic region to diff the vanishing effects.
	stateAtP := f.stateAt(predIdx)
	rp := f.cursor.fork()

	// The dynamic region: the contiguous run of control descendants.
	regionEnd := rp.anc.End(predIdx)

	// Vanishing side (the branch E took): every effect is on the trace.
	touched := map[cellKey]cellVal{} // pre-region values of written cells
	for i := predIdx + 1; i < regionEnd; i++ {
		e := f.tr.At(i)
		sf := f.stmtFacts(e.Inst.Stmt)
		if sf.consumesInput {
			return bail("region consumes input")
		}
		switch n := f.c.Info.Stmt(e.Inst.Stmt).(type) {
		case *ast.BreakStmt, *ast.ContinueStmt:
			loop := f.c.Info.LoopOf[e.Inst.Stmt]
			if loop == nil || !f.loopInsideRegion(predIdx, i, loop.ID()) {
				return bail("region breaks out of an enclosing loop")
			}
			_ = n
		case *ast.ReturnStmt:
			if f.liveAt(e.Frame, predIdx) {
				return bail("region returns from a live frame")
			}
		}
		for _, t := range rp.targets(e) {
			if _, seen := touched[t.key]; !seen {
				touched[t.key] = rp.lookup(t.key)
			}
		}
		rp.step(i)
	}
	// Call definitions committing at the region boundary are identical in
	// E and E' (prefix-entered calls that would have to return inside the
	// region were rejected by the live-frame check above); apply them so
	// the diff below sees the true post-region state. Anything still
	// pending afterwards commits in the suffix and is handled by the
	// taint walk.
	rp.release(regionEnd)

	// Taint seeds: vanished writes whose net effect was a value change …
	taintCells := map[cellKey]bool{}
	for key, pre := range touched {
		post := rp.lookup(key)
		if !pre.known || !post.known || pre.val != post.val {
			taintCells[key] = true
		}
	}
	// … plus the new branch's writes, evaluated against the state at p.
	// A new write leaves its cell untainted only when the written value,
	// the state at p (the branch may sit under a further condition and
	// not execute), and E's post-region value all provably agree.
	newVals, ok, why := f.evalNewBranch(scan, pe, stateAtP)
	if !ok {
		return bail("opposite branch: " + why)
	}
	newWrites := make(map[cellKey]bool, len(newVals))
	for key, v := range newVals {
		newWrites[key] = true
		post := rp.lookup(key)
		preP := snapVal(stateAtP, key)
		if !(v.ok && post.known && preP.known && v.val == post.val && preP.val == post.val) {
			taintCells[key] = true
		}
	}

	// Phase 2: forward taint walk over the suffix, up to the first fatal
	// divergence. (No budget precheck is needed: once the deciding facts
	// commit, a budget-exceeded or faulting switched run is NOT_ID too.)
	pf := &predFacts{ok: true, regionEnd: regionEnd, newWrites: newWrites,
		tainted: map[int]bool{}}
	f.taintWalk(rp, pf, taintCells, regionEnd)
	return pf
}

// stateAt steps the replay cursor to predIdx, restarting it from 0 when
// predIdx lies behind it, and commits the calls whose span ends there.
// The returned cells are E's machine state at the predicate; they belong
// to the cursor, so callers read them and replay on a fork.
func (f *SwitchFilter) stateAt(predIdx int) map[cellKey]cellVal {
	if f.cursor == nil || predIdx < f.cursorAt {
		f.cursor, f.cursorAt = newReplay(f), 0
	}
	for ; f.cursorAt < predIdx; f.cursorAt++ {
		f.cursor.step(f.cursorAt)
	}
	f.cursor.release(predIdx) // calls whose span ends at p commit before it
	return f.cursor.cells
}

// liveAt reports whether frame is live at trace index predIdx: it is the
// globals' frame, or one of its entries lies at or before predIdx.
func (f *SwitchFilter) liveAt(frame, predIdx int) bool {
	if f.frameStart == nil {
		for i := f.tr.Len() - 1; i >= 0; i-- {
			fr := f.tr.At(i).Frame
			for len(f.frameStart) <= fr {
				f.frameStart = append(f.frameStart, f.tr.Len())
			}
			f.frameStart[fr] = i
		}
	}
	return frame == 0 || f.frameStart[frame] <= predIdx
}

// loopInsideRegion reports whether the loop statement targeted by a
// break/continue entry is itself executing inside the switched region:
// some ancestor of entryIdx at or below predIdx is an instance of loopID.
func (f *SwitchFilter) loopInsideRegion(predIdx, entryIdx, loopID int) bool {
	for i := f.tr.At(entryIdx).Parent; i > predIdx; i = f.tr.At(i).Parent {
		if f.tr.At(i).Inst.Stmt == loopID {
			return true
		}
	}
	return false
}
