// UnswitchablePredicate (EOL0008): the static cousin of the dynamic
// skip-filter in skipfilter.go. Where the filter proves one switched
// *run* pointless from the failing trace, this pass proves a predicate
// pointless for *every* run: nothing its branches control can influence
// any program output.
package check

import (
	"eol/internal/cfg"
	"eol/internal/lang/ast"
	"eol/internal/lang/sem"
	"eol/internal/lang/token"
)

// UnswitchablePredicate (EOL0008) flags predicates whose switch provably
// cannot affect any output, via a transitive control-dependence +
// reaching-definitions closure over output-relevant statements.
var UnswitchablePredicate = &Analyzer{
	Name:     "unswitchable-predicate",
	Code:     "EOL0008",
	Severity: Info,
	Doc: `flags predicates none of whose controlled statements can influence
any program output: no print, escape, call, input read or fault-capable
operation, and no definition that reaches an output-relevant use. Forcing
either branch of such a predicate is observationally futile, so it can
never carry the implicit dependence the locator searches for.`,
	Run: runUnswitchable,
}

// runUnswitchable computes the set of output-relevant statements as a
// fixpoint and reports predicates whose controlled closures avoid it.
//
// Seeds — statements observable by themselves:
//   - outputs (print) and control escapes (return/break/continue),
//   - user calls (the callee may do anything observable),
//   - input reads (read() desynchronizes every later read),
//   - fault-capable operations (indexing, division, shifts, assert):
//     executing or skipping one can abort the program.
//
// Closure:
//   - a definition is relevant if it may reach a use at a relevant
//     statement (reaching definitions; global definitions are relevant
//     whenever the global is read anywhere, since flows through calls
//     are not tracked per-path),
//   - a predicate is relevant if either branch's transitive
//     control-dependence closure contains a relevant statement.
func runUnswitchable(p *Pass) {
	info := p.Unit.C.Info
	flow := p.Unit.Flow

	relevant := map[int]bool{}
	for _, s := range info.Stmts {
		if seedRelevant(info, s) {
			relevant[s.ID()] = true
		}
	}
	globalRead := map[int]bool{}
	for _, s := range info.Stmts {
		for _, sym := range info.StmtUses[s.ID()] {
			if sym.Kind == sem.Global {
				globalRead[sym.ID] = true
			}
		}
	}

	reaches := func(def int, sym *sem.Symbol) bool {
		if sym.Func == nil {
			return false
		}
		for _, u := range sym.Func.StmtIDs {
			if !relevant[u] || !usesSym(info, u, sym.ID) {
				continue
			}
			for _, d := range flow.DefsReaching(u, sym.ID) {
				if d == def {
					return true
				}
			}
		}
		return false
	}
	controlsRelevant := func(pred int) bool {
		for _, label := range []cfg.Label{cfg.True, cfg.False} {
			for _, id := range flow.ControlledBy(pred, label).IDs() {
				if relevant[id] {
					return true
				}
			}
		}
		return false
	}

	for changed := true; changed; {
		changed = false
		for _, s := range info.Stmts {
			id := s.ID()
			if relevant[id] {
				continue
			}
			for _, sym := range info.StmtDefs[id] {
				if sym.Kind == sem.Global && globalRead[sym.ID] {
					relevant[id] = true
					changed = true
					break
				}
				if reaches(id, sym) {
					relevant[id] = true
					changed = true
					break
				}
			}
			if !relevant[id] && ast.IsPredicate(s) && controlsRelevant(id) {
				relevant[id] = true
				changed = true
			}
		}
	}

	for _, s := range info.Stmts {
		if !ast.IsPredicate(s) {
			continue
		}
		if !controlsRelevant(s.ID()) {
			p.ReportStmt(s.ID(), "switching this predicate cannot affect any output (no controlled statement is output-relevant)")
		}
	}
}

// seedRelevant reports whether executing (or not executing) s is
// observable regardless of data flow.
func seedRelevant(info *sem.Info, s ast.Numbered) bool {
	switch s.(type) {
	case *ast.PrintStmt, *ast.ReturnStmt, *ast.BreakStmt, *ast.ContinueStmt:
		return true
	}
	if len(info.StmtCalls[s.ID()]) > 0 {
		return true
	}
	if a, ok := s.(*ast.AssignStmt); ok {
		switch a.Op {
		case token.QUO_ASSIGN, token.REM_ASSIGN, token.SHL_ASSIGN, token.SHR_ASSIGN:
			return true
		}
	}
	seed := false
	ast.InspectExprs(s, func(x ast.Expr) {
		switch t := x.(type) {
		case *ast.IndexExpr:
			seed = true
		case *ast.BinaryExpr:
			switch t.Op {
			case token.QUO, token.REM, token.SHL, token.SHR:
				seed = true
			}
		case *ast.CallExpr:
			switch t.Fun.Name {
			case "read", "assert":
				seed = true
			}
		}
	})
	return seed
}
