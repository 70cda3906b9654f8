// Opposite-branch abstract evaluation and the suffix taint walk for
// SwitchFilter (see skipfilter.go for the overall argument).
package check

import (
	"fmt"

	"eol/internal/lang/ast"
	"eol/internal/lang/sem"
	"eol/internal/lang/token"
	"eol/internal/trace"
)

// ---------------------------------------------------------------------------
// Opposite-branch evaluation

// ev is an abstract value: ok means the value is known exactly, safe
// means evaluating the expression in E' provably cannot fault.
type ev struct {
	val  int64
	ok   bool
	safe bool
}

// nbEval evaluates opposite-branch expressions against the replayed state
// at the predicate. Any symbol the branch itself may define reads as
// unknown, which makes the per-statement evaluation order-insensitive.
type nbEval struct {
	f       *SwitchFilter
	state   map[cellKey]cellVal
	defSyms map[int]bool
	frame   int
}

func (n *nbEval) cellFor(s *sem.Symbol, elem int64) cellKey {
	if s.Kind == sem.Global {
		return cellKey{s.ID, elem, 0}
	}
	return cellKey{s.ID, elem, n.frame}
}

func (n *nbEval) read(s *sem.Symbol, elem int64) ev {
	if n.defSyms[s.ID] {
		return ev{ok: false, safe: true} // may be rewritten within the branch
	}
	v := snapVal(n.state, n.cellFor(s, elem))
	return ev{v.val, v.known, true}
}

func (n *nbEval) expr(x ast.Expr) ev {
	switch t := x.(type) {
	case *ast.IntLit:
		return ev{t.Value, true, true}
	case *ast.StringLit:
		return ev{0, true, true}
	case *ast.Ident:
		s := n.f.c.Info.Uses[t]
		if s == nil || s.IsArray {
			return ev{ok: false, safe: true}
		}
		return n.read(s, trace.ScalarElem)
	case *ast.IndexExpr:
		s := n.f.c.Info.Uses[t.X]
		idx := n.expr(t.Index)
		if s == nil || !idx.ok || !idx.safe || idx.val < 0 || idx.val >= s.Size {
			return ev{ok: false, safe: false}
		}
		return n.read(s, idx.val)
	case *ast.UnaryExpr:
		v := n.expr(t.X)
		if !v.ok {
			return ev{ok: false, safe: v.safe}
		}
		switch t.Op {
		case token.SUB:
			return ev{-v.val, true, v.safe}
		case token.NOT:
			return ev{boolVal(v.val == 0), true, v.safe}
		case token.TILD:
			return ev{^v.val, true, v.safe}
		}
		return ev{ok: false, safe: false}
	case *ast.BinaryExpr:
		return n.binary(t)
	case *ast.CallExpr:
		return n.call(t)
	}
	return ev{ok: false, safe: false}
}

func (n *nbEval) binary(t *ast.BinaryExpr) ev {
	a := n.expr(t.X)
	switch t.Op {
	case token.LAND, token.LOR:
		short := int64(0)
		if t.Op == token.LOR {
			short = 1
		}
		if a.ok && a.safe && boolVal(a.val != 0) == short {
			return ev{short, true, true} // Y never evaluated
		}
		b := n.expr(t.Y)
		safe := a.safe && b.safe
		if b.ok && boolVal(b.val != 0) == short {
			return ev{short, true, safe} // same result whichever side decides
		}
		if a.ok && b.ok {
			if t.Op == token.LAND {
				return ev{boolVal(a.val != 0 && b.val != 0), true, safe}
			}
			return ev{boolVal(a.val != 0 || b.val != 0), true, safe}
		}
		return ev{ok: false, safe: safe}
	}
	b := n.expr(t.Y)
	switch t.Op {
	case token.QUO, token.REM:
		if !b.ok || !b.safe || !a.safe || b.val == 0 {
			return ev{ok: false, safe: false}
		}
		if !a.ok {
			return ev{ok: false, safe: true}
		}
		if t.Op == token.QUO {
			return ev{a.val / b.val, true, true}
		}
		return ev{a.val % b.val, true, true}
	case token.SHL, token.SHR:
		if !b.ok || !b.safe || !a.safe || b.val < 0 || b.val > 63 {
			return ev{ok: false, safe: false}
		}
		if !a.ok {
			return ev{ok: false, safe: true}
		}
		if t.Op == token.SHL {
			return ev{a.val << uint(b.val), true, true}
		}
		return ev{a.val >> uint(b.val), true, true}
	}
	safe := a.safe && b.safe
	if !a.ok || !b.ok {
		return ev{ok: false, safe: safe}
	}
	return ev{pureBinop(t.Op, a.val, b.val), true, safe}
}

func (n *nbEval) call(t *ast.CallExpr) ev {
	switch t.Fun.Name {
	case "len":
		if id, ok := t.Args[0].(*ast.Ident); ok {
			if s := n.f.c.Info.Uses[id]; s != nil {
				return ev{s.Size, true, true}
			}
		}
		return ev{ok: false, safe: false}
	case "peek", "eof":
		return ev{ok: false, safe: true} // consume nothing, never fault
	case "abs":
		v := n.expr(t.Args[0])
		if !v.ok {
			return ev{ok: false, safe: v.safe}
		}
		if v.val < 0 {
			v.val = -v.val
		}
		return v
	case "min", "max":
		a, b := n.expr(t.Args[0]), n.expr(t.Args[1])
		safe := a.safe && b.safe
		if !a.ok || !b.ok {
			return ev{ok: false, safe: safe}
		}
		v := a.val
		if (t.Fun.Name == "min") == (b.val < a.val) {
			v = b.val
		}
		return ev{v, true, safe}
	case "assert":
		v := n.expr(t.Args[0])
		if v.ok && v.safe && v.val != 0 {
			return v
		}
		return ev{ok: false, safe: false}
	}
	return ev{ok: false, safe: false} // read / user calls: excluded statically
}

func boolVal(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// pureBinop mirrors the interpreter for operators that cannot fault.
func pureBinop(op token.Kind, a, b int64) int64 {
	switch op {
	case token.ADD:
		return a + b
	case token.SUB:
		return a - b
	case token.MUL:
		return a * b
	case token.AND:
		return a & b
	case token.OR:
		return a | b
	case token.XOR:
		return a ^ b
	case token.EQL:
		return boolVal(a == b)
	case token.NEQ:
		return boolVal(a != b)
	case token.LSS:
		return boolVal(a < b)
	case token.LEQ:
		return boolVal(a <= b)
	case token.GTR:
		return boolVal(a > b)
	case token.GEQ:
		return boolVal(a >= b)
	}
	return 0
}

// evalNewBranch evaluates every statement the switched predicate would
// newly execute, proving fault-safety and collecting the (may-)written
// cells with their abstract values. Store indexes must be exactly known
// so the written cell set is precise.
func (f *SwitchFilter) evalNewBranch(scan *branchScan, pe *trace.Entry, state map[cellKey]cellVal) (map[cellKey]ev, bool, string) {
	n := &nbEval{f: f, state: state, defSyms: scan.defSyms, frame: int(pe.Frame)}
	info := f.c.Info
	writes := map[cellKey]ev{}
	put := func(key cellKey, v ev) {
		if old, ok := writes[key]; ok && !(old.ok && v.ok && old.val == v.val) {
			v = ev{ok: false, safe: true}
		}
		writes[key] = v
	}
	for _, id := range scan.stmts {
		switch t := info.Stmt(id).(type) {
		case *ast.IfStmt:
			if c := n.expr(t.Cond); !c.safe {
				return nil, false, "condition may fault"
			}
		case *ast.VarDeclStmt:
			s := info.Uses[t.Name]
			if s == nil {
				return nil, false, "unresolved declaration"
			}
			if s.IsArray {
				if s.Size > 4096 {
					return nil, false, "large array declaration"
				}
				for el := int64(0); el < s.Size; el++ {
					put(n.cellFor(s, el), ev{0, true, true})
				}
				continue
			}
			v := ev{0, true, true}
			if t.Init != nil {
				if v = n.expr(t.Init); !v.safe {
					return nil, false, "initializer may fault"
				}
			}
			put(n.cellFor(s, trace.ScalarElem), v)
		case *ast.AssignStmt:
			rhs := n.expr(t.RHS)
			if !rhs.safe {
				return nil, false, "assignment may fault"
			}
			v := rhs
			switch t.Op {
			case token.ASSIGN:
			case token.QUO_ASSIGN, token.REM_ASSIGN:
				if !rhs.ok || rhs.val == 0 {
					return nil, false, "division may fault"
				}
				v = ev{ok: false, safe: true}
			case token.SHL_ASSIGN, token.SHR_ASSIGN:
				if !rhs.ok || rhs.val < 0 || rhs.val > 63 {
					return nil, false, "shift may fault"
				}
				v = ev{ok: false, safe: true}
			default:
				v = ev{ok: false, safe: true} // compound: reads its own target
			}
			switch lhs := t.LHS.(type) {
			case *ast.Ident:
				s := info.Uses[lhs]
				if s == nil {
					return nil, false, "unresolved assignment"
				}
				put(n.cellFor(s, trace.ScalarElem), v)
			case *ast.IndexExpr:
				s := info.Uses[lhs.X]
				idx := n.expr(lhs.Index)
				if s == nil || !idx.ok || !idx.safe || idx.val < 0 || idx.val >= s.Size {
					return nil, false, "store index not provable"
				}
				put(n.cellFor(s, idx.val), v)
			default:
				return nil, false, "invalid assignment target"
			}
		case *ast.PrintStmt:
			// Extra output is harmless to the verdict: only the aligned
			// counterpart of the wrong output entry is ever inspected.
			for _, a := range t.Args {
				if v := n.expr(a); !v.safe {
					return nil, false, "print argument may fault"
				}
			}
		case *ast.ExprStmt:
			if v := n.expr(t.X); !v.safe {
				return nil, false, "expression may fault"
			}
		default:
			return nil, false, "unsupported statement"
		}
	}
	return writes, true, ""
}

// ---------------------------------------------------------------------------
// Suffix taint walk

// taintWalk pushes the cell-level divergence seeded at the region exit
// forward through E's suffix until it escapes the proof — flips a branch
// outcome, makes a new fault possible, desynchronizes input, survives
// into a call, or reaches the wrong output entry — recording that first
// index in pf.fatalAt (trace length when the taint drains harmlessly).
// Strictly before fatalAt, E' is provably aligned entry-for-entry with E;
// entries whose produced value may differ are recorded in pf.tainted.
func (f *SwitchFilter) taintWalk(rp *replay, pf *predFacts, taint map[cellKey]bool, regionEnd int) {
	info := f.c.Info

	// arrTaint counts tainted cells per (array symbol, frame) so that an
	// indexed read with an untainted index is only deemed divergent when
	// the array actually holds taint somewhere.
	arrTaint := map[[2]int]int{}
	for key := range taint {
		if key.elem != trace.ScalarElem {
			arrTaint[[2]int{key.sym, key.frame}]++
		}
	}
	setCell := func(key cellKey, t bool) {
		if taint[key] == t {
			return
		}
		if t {
			taint[key] = true
		} else {
			delete(taint, key)
		}
		if key.elem != trace.ScalarElem {
			d := -1
			if t {
				d = 1
			}
			arrTaint[[2]int{key.sym, key.frame}] += d
		}
	}
	usesTainted := func(i int) bool {
		e := f.tr.At(i)
		for _, rec := range f.tr.Uses(i) {
			if rec.Sym == trace.RetvalSym {
				if rec.Def >= 0 && pf.tainted[int(rec.Def)] {
					return true
				}
				continue
			}
			if rec.Sym < 0 {
				continue
			}
			if taint[f.cellOf(e, int(rec.Sym), rec.Elem)] {
				return true
			}
		}
		return false
	}
	// exprMayDiffer conservatively decides whether an operand expression
	// can evaluate differently in E' — used for the fault-capable
	// operands of tainted entries, including operands a short-circuit
	// skipped in E (they carry no use records but may run in E').
	var exprMayDiffer func(x ast.Expr, e *trace.Entry) bool
	exprMayDiffer = func(x ast.Expr, e *trace.Entry) bool {
		switch t := x.(type) {
		case *ast.IntLit, *ast.StringLit:
			return false
		case *ast.Ident:
			s := info.Uses[t]
			if s == nil {
				return true
			}
			if s.IsArray {
				return false // only valid as a len() argument
			}
			fr := int(e.Frame)
			if s.Kind == sem.Global {
				fr = 0
			}
			return taint[cellKey{s.ID, trace.ScalarElem, fr}]
		case *ast.IndexExpr:
			s := info.Uses[t.X]
			if s == nil || exprMayDiffer(t.Index, e) {
				return true
			}
			fr := int(e.Frame)
			if s.Kind == sem.Global {
				fr = 0
			}
			return arrTaint[[2]int{s.ID, fr}] > 0
		case *ast.UnaryExpr:
			return exprMayDiffer(t.X, e)
		case *ast.BinaryExpr:
			return exprMayDiffer(t.X, e) || exprMayDiffer(t.Y, e)
		case *ast.CallExpr:
			switch t.Fun.Name {
			case "read", "peek", "eof", "len":
				return false // input stays synchronized; len is static
			case "abs", "min", "max", "assert":
				for _, a := range t.Args {
					if exprMayDiffer(a, e) {
						return true
					}
				}
				return false
			}
			return true // user call
		}
		return true
	}
	judge := func(e *trace.Entry, idx int) string {
		if ast.IsPredicate(info.Stmt(e.Inst.Stmt)) {
			return fmt.Sprintf("taint reaches a branch outcome (S%d at %d)", e.Inst.Stmt, idx)
		}
		if idx == f.wrong {
			return "taint reaches the wrong output"
		}
		sf := f.stmtFacts(e.Inst.Stmt)
		if sf.consumesInput {
			return "taint reaches an input read"
		}
		for _, d := range sf.dangerous {
			if exprMayDiffer(d, e) {
				return fmt.Sprintf("taint reaches a fault operand (S%d at %d)", e.Inst.Stmt, idx)
			}
		}
		return ""
	}

	// Deferred call commits: calls entered before the region that span it
	// (their callees return in the suffix — returning inside the region
	// was rejected earlier) plus calls made in the suffix itself. A call
	// whose arguments or callee results are tainted is not modeled — the
	// callee could do anything with them — so it bails the analysis.
	type pendingCall struct {
		entry, release int
		snap           bool // tainted when entered
		defs           []defTarget
	}
	var calls []pendingCall
	for _, p := range rp.pending {
		calls = append(calls, pendingCall{entry: p.entry, release: p.release, defs: p.defs})
	}
	rp.pending = nil
	releaseCalls := func(i int) string {
		kept := calls[:0]
		var due []pendingCall
		for _, p := range calls {
			if p.release <= i {
				due = append(due, p)
			} else {
				kept = append(kept, p)
			}
		}
		calls = kept
		for _, p := range due {
			if p.snap || usesTainted(p.entry) {
				return "taint reaches a call"
			}
			for _, d := range p.defs {
				setCell(d.key, false) // identical call, identical result
			}
		}
		return ""
	}

	pf.fatalAt = f.tr.Len()
	for i := regionEnd; i < f.tr.Len(); i++ {
		if why := releaseCalls(i); why != "" {
			pf.fatalAt, pf.fatalWhy = i, why
			return
		}
		e := f.tr.At(i)
		if f.stmtFacts(e.Inst.Stmt).hasUserCall {
			if usesTainted(i) {
				pf.fatalAt, pf.fatalWhy = i, "taint reaches a call"
				return
			}
			var deferred []defTarget
			for _, d := range rp.targets(i) {
				if d.deferred {
					deferred = append(deferred, d)
				} else {
					setCell(d.key, false) // parameter bindings of untainted args
				}
			}
			calls = append(calls, pendingCall{entry: i, release: rp.anc.End(i), defs: deferred})
			continue
		}
		t := usesTainted(i)
		if t {
			if why := judge(e, i); why != "" {
				pf.fatalAt, pf.fatalWhy = i, why
				return
			}
			pf.tainted[i] = true
		}
		for _, d := range rp.targets(i) {
			setCell(d.key, t)
		}
	}
}
