// Package check is a pass-based static analyzer suite for MiniC,
// modeled on go/analysis: each check is an Analyzer with a name, a doc
// string and a Run function over a shared compilation Unit (AST +
// sem.Info + cfg.Program + dataflow.Analysis), emitting structured
// Diagnostics with stable codes.
//
// The suite exists to keep the reproduction's subjects trustworthy —
// Tables 1–4 are only as good as the MiniC programs behind them, and an
// unreachable seeded fault or an accidentally-constant predicate
// silently corrupts slice sizes and verification counts. It surfaces in
// three places: the eolvet CLI (and minic -vet), subject validation in
// the test/benchmark harnesses (testsupport.Validate), and the static
// skip-filter consulted by core.Locate (SwitchFilter, in this package),
// which shares the same static machinery to prove switched runs
// unnecessary.
//
// See docs/STATIC_CHECKS.md for the pass catalog with one minimal
// triggering program per code.
package check

import (
	"fmt"
	"sort"

	"eol/internal/dataflow"
	"eol/internal/interp"
	"eol/internal/lang/token"
	"eol/internal/staticdep"
)

// Severity grades a diagnostic. Only Error-severity diagnostics make a
// subject ill-formed (harness validation rejects them); warnings flag
// suspicious-but-legal constructs and infos are observations.
type Severity int

// Severities, mildest first.
const (
	Info Severity = iota
	Warning
	Error
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	}
	return "info"
}

// Diagnostic is one finding: a stable code, the statement it anchors to
// (0 when the finding is not statement-shaped, e.g. a whole function),
// its source position, and a message.
type Diagnostic struct {
	Code     string // stable, e.g. "EOL0003"
	Severity Severity
	Stmt     int // statement ID, 0 if none
	Pos      token.Pos
	Message  string
}

// String renders the diagnostic in file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s: %s", d.Pos, d.Severity, d.Code, d.Message)
}

// Unit is the shared compilation unit analyzers run over. Everything is
// derived from one compiled program; Flow is the program's shared
// dataflow analysis.
type Unit struct {
	C    *interp.Compiled
	Flow *dataflow.Analysis

	sd *staticdep.Graph // lazily built by SPDG
}

// Load compiles src and prepares the analysis unit.
func Load(src string) (*Unit, error) {
	c, err := interp.Compile(src)
	if err != nil {
		return nil, err
	}
	return NewUnit(c), nil
}

// NewUnit wraps an already-compiled program and its shared dataflow
// analysis (dataflow.Of).
func NewUnit(c *interp.Compiled) *Unit {
	return &Unit{C: c, Flow: dataflow.Of(c)}
}

// SPDG returns the unit's static program dependence graph
// (internal/staticdep), building it on first use and sharing it across
// passes. Not safe for concurrent callers — analyzers run sequentially
// over one unit.
func (u *Unit) SPDG() *staticdep.Graph {
	if u.sd == nil {
		u.sd = staticdep.New(u.C, u.Flow)
	}
	return u.sd
}

// Pass is one analyzer's run over one unit; Report collects findings
// with the analyzer's code and severity attached.
type Pass struct {
	Unit     *Unit
	Analyzer *Analyzer

	diags *[]Diagnostic
}

// Report records a finding at statement stmt (0 if none) and position
// pos.
func (p *Pass) Report(stmt int, pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Code:     p.Analyzer.Code,
		Severity: p.Analyzer.Severity,
		Stmt:     stmt,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportStmt records a finding at a numbered statement, using its own
// source position.
func (p *Pass) ReportStmt(stmt int, format string, args ...any) {
	p.Report(stmt, p.Unit.C.Info.Stmt(stmt).Pos(), format, args...)
}

// Analyzer is one static check, in the style of go/analysis.
type Analyzer struct {
	Name     string // short kebab-case name, e.g. "dead-store"
	Code     string // stable diagnostic code, e.g. "EOL0002"
	Doc      string // one-paragraph description
	Severity Severity
	Run      func(*Pass)
}

// Analyzers returns the full registered suite, in code order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		UninitRead,
		DeadStore,
		Unreachable,
		ConstPredicate,
		Unused,
		MissingReturn,
		ConstIndexOOB,
		UnswitchablePredicate,
		InfluenceFreePredicate,
		CrossCallDeadStore,
	}
}

// ByName returns the registered analyzer with the given name or code,
// nil if unknown.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name || a.Code == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers runs the given analyzers over u and returns their
// findings sorted by source position, then code — a stable order
// independent of pass registration.
func RunAnalyzers(u *Unit, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Unit: u, Analyzer: a, diags: &diags}
		a.Run(pass)
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Code < b.Code
	})
	return diags
}

// Vet runs the whole suite over u.
func Vet(u *Unit) []Diagnostic { return RunAnalyzers(u, Analyzers()) }

// HasErrors reports whether any diagnostic is Error-severity.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}
