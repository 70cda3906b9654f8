// SPDG-backed passes (EOL0009, EOL0010): the first analyzers to consume
// the interprocedural static dependence graph of internal/staticdep.
// Where EOL0008 reasons per function with conservative global and call
// handling, these two see through calls — summary edges pull callee
// bodies into predicate cones, and the supergraph reaching definitions
// kill global flows that never survive to a reader.
package check

import (
	"sort"
	"strings"

	"eol/internal/lang/ast"
	"eol/internal/lang/sem"
)

// InfluenceFreePredicate (EOL0009) flags predicates whose SPDG forward
// cone is silent: no output, no fault-capable operation and no input
// read anywhere in it, through calls included.
var InfluenceFreePredicate = &Analyzer{
	Name:     "influence-free-predicate",
	Code:     "EOL0009",
	Severity: Info,
	Doc: `flags predicates whose static forward cone over the interprocedural
dependence graph (control + data + call summary edges) contains no
output, fault-capable operation or input read: switching the predicate
cannot influence anything observable, so it can never carry an implicit
dependence. Sees through calls and killed global flows that the
per-function EOL0008 closure must treat conservatively.`,
	Run: runInfluenceFree,
}

// runInfluenceFree reports predicates with a silent, non-empty cone.
// EOL0008 findings are suppressed here — a predicate its weaker
// intra-function analysis already proves futile needs no second report;
// this pass exists for the cones only interprocedural precision closes.
func runInfluenceFree(p *Pass) {
	sd := p.Unit.SPDG()
	intra := map[int]bool{}
	diags := []Diagnostic{}
	pass := &Pass{Unit: p.Unit, Analyzer: UnswitchablePredicate, diags: &diags}
	UnswitchablePredicate.Run(pass)
	for _, d := range diags {
		intra[d.Stmt] = true
	}
	for _, s := range p.Unit.C.Info.Stmts {
		if !ast.IsPredicate(s) || intra[s.ID()] {
			continue
		}
		if sd.ConeSilent(s.ID()) {
			p.ReportStmt(s.ID(), "switching this predicate cannot influence any output (its interprocedural dependence cone is silent)")
		}
	}
}

// CrossCallDeadStore (EOL0010) flags global stores no execution can
// ever read, across all call paths.
var CrossCallDeadStore = &Analyzer{
	Name:     "cross-call-dead-store",
	Code:     "EOL0010",
	Severity: Warning,
	Doc: `flags assignments to globals whose values can never reach a reader:
the interprocedural reaching-definitions supergraph shows no use of the
global, in any function, that the stored value survives to. A seeded
fault behind such a store is unreachable by the locator, and in subject
programs it usually marks a misspelled or vestigial accumulator.
Self-updates (the stored expression reads the same global, as in a
trailing counter increment) are exempt: subjects are excerpts of larger
programs, where such counters feed code outside the excerpt.`,
	Run: runCrossCallDeadStore,
}

func runCrossCallDeadStore(p *Pass) {
	info := p.Unit.C.Info
	for _, id := range p.Unit.SPDG().DeadGlobalStores() {
		used := map[int]bool{}
		for _, sym := range info.StmtUses[id] {
			used[sym.ID] = true
		}
		var names []string
		for _, sym := range info.StmtDefs[id] {
			if sym.Kind == sem.Global && !used[sym.ID] {
				names = append(names, sym.Name)
			}
		}
		if len(names) == 0 {
			continue
		}
		sort.Strings(names)
		p.ReportStmt(id, "value stored to global %s is never read on any call path", strings.Join(names, ", "))
	}
}
