// Replay, opposite-branch evaluation and suffix taint walk backing
// SwitchFilter (see skipfilter.go for the overall argument).
package check

import (
	"slices"
	"sort"

	"eol/internal/cfg"
	"eol/internal/lang/ast"
	"eol/internal/lang/sem"
	"eol/internal/lang/token"
	"eol/internal/trace"
)

// ---------------------------------------------------------------------------
// Static per-statement facts

// stmtStaticFacts caches AST-level facts about one statement.
type stmtStaticFacts struct {
	consumesInput bool // contains read(); peek/eof do not consume
	hasUserCall   bool // calls a user-defined function
	// dangerous lists every fault-capable operand expression: divisors,
	// shift counts, array indexes and assert arguments. If none of these
	// can change value, re-executing the statement cannot newly fault.
	dangerous []ast.Expr
}

func (f *SwitchFilter) stmtFacts(id int) *stmtStaticFacts {
	if sf, ok := f.stmts[id]; ok {
		return sf
	}
	sf := &stmtStaticFacts{}
	node := f.c.Info.Stmt(id)
	if a, ok := node.(*ast.AssignStmt); ok {
		switch a.Op {
		case token.QUO_ASSIGN, token.REM_ASSIGN, token.SHL_ASSIGN, token.SHR_ASSIGN:
			sf.dangerous = append(sf.dangerous, a.RHS)
		}
	}
	ast.InspectExprs(node, func(x ast.Expr) {
		switch t := x.(type) {
		case *ast.IndexExpr:
			sf.dangerous = append(sf.dangerous, t.Index)
		case *ast.BinaryExpr:
			switch t.Op {
			case token.QUO, token.REM, token.SHL, token.SHR:
				sf.dangerous = append(sf.dangerous, t.Y)
			}
		case *ast.CallExpr:
			switch t.Fun.Name {
			case "read":
				sf.consumesInput = true
			case "assert":
				sf.dangerous = append(sf.dangerous, t.Args[0])
			case "peek", "eof", "len", "abs", "min", "max":
			default:
				sf.hasUserCall = true
			}
		}
	})
	f.stmts[id] = sf
	return sf
}

// ---------------------------------------------------------------------------
// Static scan of the opposite branch

type scanKey struct {
	stmt  int
	label cfg.Label
}

// branchScan is the cached static admissibility scan of one branch: the
// statements E' would newly execute when the predicate is switched.
type branchScan struct {
	ok      bool
	reason  string
	stmts   []int        // transitively controlled statements, sorted
	defSyms map[int]bool // symbols any of them may define
}

func (f *SwitchFilter) branchStmts(ps int, opp cfg.Label) *branchScan {
	key := scanKey{ps, opp}
	if s, ok := f.scans[key]; ok {
		return s
	}
	s := f.scanBranch(ps, opp)
	f.scans[key] = s
	return s
}

func (f *SwitchFilter) scanBranch(ps int, opp cfg.Label) *branchScan {
	// Switching a loop condition only inverts one evaluation: the loop
	// re-tests afterwards and may iterate unboundedly; model ifs only.
	if _, isIf := f.c.Info.Stmt(ps).(*ast.IfStmt); !isIf {
		return &branchScan{reason: "loop predicate"}
	}
	ids := f.flow.ControlledBy(ps, opp).IDs()
	s := &branchScan{stmts: ids, defSyms: map[int]bool{}}
	for _, id := range ids {
		switch f.c.Info.Stmt(id).(type) {
		case *ast.WhileStmt, *ast.ForStmt:
			return &branchScan{reason: "contains a loop"}
		case *ast.BreakStmt, *ast.ContinueStmt, *ast.ReturnStmt:
			return &branchScan{reason: "escapes the region"}
		}
		sf := f.stmtFacts(id)
		if sf.hasUserCall {
			return &branchScan{reason: "calls a function"}
		}
		if sf.consumesInput {
			return &branchScan{reason: "consumes input"}
		}
		for _, sym := range f.c.Info.StmtDefs[id] {
			s.defSyms[sym.ID] = true
		}
	}
	s.ok = true
	return s
}

// ---------------------------------------------------------------------------
// Trace replay with exact machine state

// cellVal is a replayed cell: a concrete value, or "unknown" where the
// trace does not determine it (e.g. parameter bindings, which carry no
// value and are healed by the callee's own use records).
type cellVal struct {
	val   int64
	known bool
}

// defTarget is one resolved definition of a trace entry. The primary
// definition of a statement containing a user call commits only after the
// callee has returned — trace order is not temporal order there — so it
// is marked deferred and applied at the end of the entry's descendant
// span.
type defTarget struct {
	key      cellKey
	val      int64
	known    bool
	deferred bool
}

type pendingDef struct {
	entry   int
	release int // first trace index past the entry's descendant span
	defs    []defTarget
}

// replay reconstructs machine state by walking the failing trace. Cells
// never read a wrong concrete value: anything the trace does not pin down
// is marked unknown, and use records (which carry observed values) heal
// unknowns as execution proceeds.
type replay struct {
	f   *SwitchFilter
	anc *trace.Ancestry
	// cells holds the cells this replay wrote. A fork reads through to
	// base, the state of the replay it was forked from, for the rest.
	cells   map[cellKey]cellVal
	base    map[cellKey]cellVal
	pending []pendingDef
}

func newReplay(f *SwitchFilter) *replay {
	return &replay{f: f, anc: f.tr.Ancestry(), cells: map[cellKey]cellVal{}}
}

func (rp *replay) lookup(key cellKey) cellVal {
	if v, ok := rp.cells[key]; ok {
		return v
	}
	return snapVal(rp.base, key)
}

// fork returns a replay that continues from rp's state and leaves rp
// unchanged: its writes go to a map of its own, read over rp's cells.
// rp must not be a fork, and must not step while the fork is in use.
// pending is copied, because release filters it in place.
func (rp *replay) fork() *replay {
	return &replay{f: rp.f, anc: rp.anc, cells: map[cellKey]cellVal{}, base: rp.cells,
		pending: slices.Clone(rp.pending)}
}

// snapVal reads key from a replayed state. Every cell starts
// zero-initialized.
func snapVal(state map[cellKey]cellVal, key cellKey) cellVal {
	if v, ok := state[key]; ok {
		return v
	}
	return cellVal{0, true}
}

// release applies deferred call definitions whose span has ended by i,
// innermost call first when spans end together.
func (rp *replay) release(i int) {
	if len(rp.pending) == 0 {
		return
	}
	kept := rp.pending[:0]
	var due []pendingDef
	for _, p := range rp.pending {
		if p.release <= i {
			due = append(due, p)
		} else {
			kept = append(kept, p)
		}
	}
	rp.pending = kept
	sort.Slice(due, func(a, b int) bool {
		if due[a].release != due[b].release {
			return due[a].release < due[b].release
		}
		return due[a].entry > due[b].entry
	})
	for _, p := range due {
		for _, t := range p.defs {
			rp.cells[t.key] = cellVal{t.val, t.known}
		}
	}
}

func (rp *replay) step(i int) {
	rp.release(i)
	e := rp.f.tr.At(i)
	if !rp.f.stmtFacts(e.Inst.Stmt).hasUserCall {
		// Use records carry observed values: heal unknowns. (Skipped for
		// call statements, whose uses interleave with callee effects.)
		for _, rec := range rp.f.tr.Uses(i) {
			if rec.Sym < 0 {
				continue
			}
			rp.cells[rp.f.cellOf(e, int(rec.Sym), rec.Elem)] = cellVal{rec.Val, true}
		}
	}
	var deferred []defTarget
	for _, t := range rp.targets(i) {
		if t.deferred {
			deferred = append(deferred, t)
		} else {
			rp.cells[t.key] = cellVal{t.val, t.known}
		}
	}
	if len(deferred) > 0 {
		rp.pending = append(rp.pending, pendingDef{i, rp.anc.End(i), deferred})
	}
}

// targets resolves trace entry i's definition records to concrete
// cells. Parameter bindings at call statements land in the callee's
// frame — found via the entry's trace children — and are value-unknown.
// The result is reused by the next call.
func (rp *replay) targets(i int) []defTarget {
	e := rp.f.tr.At(i)
	info := rp.f.c.Info
	node := info.Stmt(e.Inst.Stmt)
	calls := info.StmtCalls[e.Inst.Stmt]
	hasCall := rp.f.stmtFacts(e.Inst.Stmt).hasUserCall
	out := rp.f.targetBuf[:0]
	for _, rec := range rp.f.tr.Defs(i) {
		if rec.Sym < 0 {
			continue
		}
		sym := info.Symbols[rec.Sym]
		binding := false
		if sym.Kind == sem.Param && sym.Func != nil {
			for _, fn := range calls {
				if fn == sym.Func.Name {
					binding = true
					break
				}
			}
		}
		if binding {
			for _, ch := range rp.f.tr.Children(i) {
				che := rp.f.tr.At(ch)
				if info.StmtFunc[che.Inst.Stmt] == sym.Func {
					out = append(out, defTarget{key: cellKey{rec.Sym, rec.Elem, int(che.Frame)}})
				}
			}
			if primaryDef(info, node, rec.Sym) {
				// Recursion like "n = f(n-1)" inside f: the caller-side
				// cell shares the symbol; frames are ambiguous, poison it.
				out = append(out, defTarget{key: rp.f.cellOf(e, rec.Sym, rec.Elem), deferred: hasCall})
			}
			continue
		}
		if primaryDef(info, node, rec.Sym) {
			out = append(out, defTarget{
				key: rp.f.cellOf(e, rec.Sym, rec.Elem),
				val: primaryVal(node, e), known: true, deferred: hasCall,
			})
		} else {
			out = append(out, defTarget{key: rp.f.cellOf(e, rec.Sym, rec.Elem)})
		}
	}
	rp.f.targetBuf = out
	return out
}

// primaryDef reports whether rec.Sym is the statement's own assignment
// target (whose produced value the trace records as Entry.Value).
func primaryDef(info *sem.Info, node ast.Stmt, symID int) bool {
	switch n := node.(type) {
	case *ast.VarDeclStmt:
		s := info.Uses[n.Name]
		return s != nil && s.ID == symID
	case *ast.AssignStmt:
		var lhs *ast.Ident
		switch t := n.LHS.(type) {
		case *ast.Ident:
			lhs = t
		case *ast.IndexExpr:
			lhs = t.X
		}
		if lhs == nil {
			return false
		}
		s := info.Uses[lhs]
		return s != nil && s.ID == symID
	}
	return false
}

func primaryVal(node ast.Stmt, e *trace.Entry) int64 {
	if d, ok := node.(*ast.VarDeclStmt); ok && d.Size != nil {
		return 0 // array declarations zero every element
	}
	return e.Value
}
