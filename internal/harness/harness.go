// Package harness regenerates the paper's evaluation: Tables 1-4 and the
// ablations indexed in DESIGN.md, over the benchmark suite of
// internal/bench.
//
// Absolute numbers differ from the paper (interpreter vs valgrind, MiniC
// analogs vs SIR programs), but each table reproduces the corresponding
// qualitative claims:
//
//	Table 1  benchmark characteristics
//	Table 2  RS captures every omission error but blows up dynamic slice
//	         sizes; DS and PS miss every error
//	Table 3  the demand-driven locator captures every error with few
//	         verifications, iterations and expanded edges; IPS ≈ OS
//	Table 4  dependence-graph construction slows execution by large
//	         factors; verification cost scales with re-executions
//
// # Mapping onto the paper
//
// Each TableN function prepares every bench.Case (compile both versions,
// run the failing input traced, profile the passing inputs) and drives
// the same entry points a user would: the slicers for Table 2,
// core.Locate — Algorithm 2 end to end, with the ground-truth state
// oracle standing in for the interactive programmer — for Table 3, and
// interleaved min-of-N timing of the interpreter's Plain/Graph modes for
// Table 4. Table3Row's fields are, one for one, the columns of the
// paper's Table 3.
//
// # Beyond the paper
//
// VerifyTable extends Table 4's "Verification" column into an ablation
// of the verification engine (internal/verifyengine): the same
// localization run with sequential, parallel and cached scheduling,
// cross-checked to produce identical Reports — wall-clock and cache hit
// rate are the only things allowed to move. RenderAblation (ablation.go)
// covers the paper-internal design ablations indexed in DESIGN.md.
package harness

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"eol/internal/backend"
	"eol/internal/bench"
	"eol/internal/confidence"
	"eol/internal/core"
	"eol/internal/depgraph"
	"eol/internal/interp"
	"eol/internal/obs"
	"eol/internal/oracle"
	"eol/internal/slicing"
	"eol/internal/trace"
)

// Table1Row is one row of Table 1 (benchmark characteristics).
type Table1Row struct {
	Benchmark  string
	LOC        int
	Procedures int
	ErrorType  string
	ErrorCases int
}

// Table1 summarizes the benchmark programs.
func Table1() []Table1Row {
	type agg struct {
		c *bench.Case
		n int
	}
	order := []string{"flexsim", "grepsim", "gzipsim", "sedsim"}
	m := map[string]*agg{}
	for _, c := range bench.Cases() {
		if m[c.Program] == nil {
			m[c.Program] = &agg{c: c}
		}
		m[c.Program].n++
	}
	var rows []Table1Row
	for _, name := range order {
		a := m[name]
		if a == nil {
			continue
		}
		comp, err := interp.Compile(a.c.CorrectSrc)
		procs := 0
		if err == nil {
			procs = len(comp.Prog.Funcs)
		}
		rows = append(rows, Table1Row{
			Benchmark:  name,
			LOC:        a.c.LOC(),
			Procedures: procs,
			ErrorType:  "seeded",
			ErrorCases: a.n,
		})
	}
	return rows
}

// Table2Row is one row of Table 2 (slice sizes).
type Table2Row struct {
	Case        string
	RS, DS, PS  depgraph.SliceStats
	RSCaptures  bool // RS contains the root cause
	DSCaptures  bool
	PSCaptures  bool
	RSDSStatic  float64 // RS/DS ratios
	RSDSDynamic float64
	RSPSStatic  float64
	RSPSDynamic float64
}

// Table2 computes DS, RS and PS for every error case.
func Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, c := range bench.Cases() {
		p, err := c.Prepare()
		if err != nil {
			return nil, err
		}
		row, err := table2Case(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name(), err)
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func table2Case(p *bench.Prepared) (*Table2Row, error) {
	tr := p.Run.Trace
	seq, missing, ok := slicing.FirstWrongOutput(p.Run.OutputValues(), p.Expected)
	if !ok || missing {
		return nil, fmt.Errorf("no wrong-value failure")
	}
	seed := slicing.FailureSeeds(tr, seq)
	cx := slicing.NewContext(p.Faulty, tr)

	gDS := depgraph.New(tr)
	ds := slicing.Dynamic(gDS, seed)

	gRS := depgraph.New(tr)
	rs := cx.Relevant(gRS, seed)

	// PS: automatic confidence pruning of DS (no user interaction).
	wrong := *tr.OutputAt(seq)
	var correct []trace.Output
	for i := 0; i < seq; i++ {
		correct = append(correct, *tr.OutputAt(i))
	}
	an := confidence.New(p.Faulty, gDS, p.Profile, correct, wrong)
	an.Compute()
	ps := depgraph.NewSet(tr.Len())
	for _, cand := range an.FaultCandidates() {
		ps.Add(cand.Entry)
	}

	row := &Table2Row{
		Case:       p.Case.Name(),
		RS:         gRS.Stats(rs),
		DS:         gDS.Stats(ds),
		PS:         gDS.Stats(ps),
		RSCaptures: gRS.ContainsStmt(rs, p.RootStmt),
		DSCaptures: gDS.ContainsStmt(ds, p.RootStmt),
		PSCaptures: gDS.ContainsStmt(ps, p.RootStmt),
	}
	row.RSDSStatic = ratio(row.RS.Static, row.DS.Static)
	row.RSDSDynamic = ratio(row.RS.Dynamic, row.DS.Dynamic)
	row.RSPSStatic = ratio(row.RS.Static, row.PS.Static)
	row.RSPSDynamic = ratio(row.RS.Dynamic, row.PS.Dynamic)
	return row, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Table3Row is one row of Table 3 (effectiveness).
type Table3Row struct {
	Case          string
	UserPrunings  int
	Verifications int
	Iterations    int
	ExpandedEdges int
	IPS           depgraph.SliceStats
	OS            depgraph.SliceStats
	Located       bool
}

// Table3 runs the demand-driven locator on every case, bounded by ctx
// (nil = background).
func Table3(ctx context.Context, o obs.Observer) ([]Table3Row, error) {
	var rows []Table3Row
	for _, c := range bench.Cases() {
		p, err := c.Prepare()
		if err != nil {
			return nil, err
		}
		row, err := Table3Case(ctx, p, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name(), err)
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// Table3Case runs localization for one prepared case, streaming events
// to o when non-nil, bounded by ctx (nil = background).
func Table3Case(ctx context.Context, p *bench.Prepared, o obs.Observer) (*Table3Row, error) {
	spec := p.Spec()
	spec.Observer = o
	rep, err := core.LocateContext(ctx, spec)
	if err != nil {
		return nil, err
	}
	osStats := failureChain(p, rep)
	return &Table3Row{
		Case:          p.Case.Name(),
		UserPrunings:  rep.Stats.UserPrunings,
		Verifications: rep.Stats.Verifications,
		Iterations:    rep.Stats.Iterations,
		ExpandedEdges: rep.Stats.ExpandedEdges,
		IPS:           rep.IPS,
		OS:            osStats,
		Located:       rep.Located,
	}, nil
}

// failureChain computes OS, the failure-inducing dependence chain: the
// corrupted-state entries (ground truth from trace pairing) lying on the
// backward closure of the wrong output in the final expanded graph. This
// mechanizes the chain the paper's authors identified manually.
func failureChain(p *bench.Prepared, rep *core.Report) depgraph.SliceStats {
	pairing := oracle.Pair(rep.Trace, p.CorrectTrace().Trace)
	corrupted := pairing.Corrupted()
	slice := rep.Graph.BackwardSlice(
		depgraph.Explicit|depgraph.Implicit|depgraph.StrongImplicit, rep.WrongOutput.Entry)
	chain := depgraph.NewSet(rep.Trace.Len())
	slice.ForEach(func(e int) {
		if corrupted[e] {
			chain.Add(e)
		}
	})
	return rep.Graph.Stats(chain)
}

// Table4Row is one row of Table 4 (performance).
type Table4Row struct {
	Case       string
	Plain      time.Duration // interpretation without tracing
	Graph      time.Duration // full dependence-graph construction
	Verify     time.Duration // all verification re-executions
	GraphPlain float64       // slowdown factor
}

// Table4 measures Plain vs Graph vs Verification cost per case. reps
// controls the repetitions; measurements interleave the two modes and
// report the per-mode minimum, which resists scheduler and GC noise on
// the microsecond-scale executions (the paper's original runs were "a
// few milliseconds" and noisy for the same reason).
func Table4(ctx context.Context, reps int) ([]Table4Row, error) {
	if reps <= 0 {
		reps = 20
	}
	var rows []Table4Row
	for _, c := range bench.Cases() {
		p, err := c.Prepare()
		if err != nil {
			return nil, err
		}

		timeOne := func(trace bool) (time.Duration, error) {
			start := time.Now()
			r := backend.Default().Run(p.Faulty, interp.Options{Input: c.FailingInput, BuildTrace: trace})
			d := time.Since(start)
			return d, r.Err
		}
		// Warm-up, then interleaved min-of-N.
		if _, err := timeOne(false); err != nil {
			return nil, err
		}
		if _, err := timeOne(true); err != nil {
			return nil, err
		}
		plain, graph := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < reps; i++ {
			dp, err := timeOne(false)
			if err != nil {
				return nil, err
			}
			dg, err := timeOne(true)
			if err != nil {
				return nil, err
			}
			if dp < plain {
				plain = dp
			}
			if dg < graph {
				graph = dg
			}
		}

		start := time.Now()
		if _, err := core.LocateContext(ctx, p.Spec()); err != nil {
			return nil, err
		}
		verify := time.Since(start)

		row := Table4Row{Case: c.Name(), Plain: plain, Graph: graph, Verify: verify}
		if plain > 0 {
			row.GraphPlain = float64(graph) / float64(plain)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Rendering

// WriteTable1 renders Table 1 as text.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1. Characteristics of benchmarks\n")
	fmt.Fprintf(w, "%-10s %6s %6s %-8s %s\n", "Benchmark", "LOC", "Procs", "Type", "Cases")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %6d %6d %-8s %d\n", r.Benchmark, r.LOC, r.Procedures, r.ErrorType, r.ErrorCases)
	}
}

// WriteTable2 renders Table 2 as text.
func WriteTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "Table 2. Execution omission errors: slice sizes (static/dynamic)\n")
	fmt.Fprintf(w, "%-16s %13s %13s %13s %11s %11s  %s\n",
		"Case", "RS", "DS", "PS", "RS/DS", "RS/PS", "captured by")
	for _, r := range rows {
		cap3 := func(b bool) string {
			if b {
				return "y"
			}
			return "-"
		}
		fmt.Fprintf(w, "%-16s %6d/%-6d %6d/%-6d %6d/%-6d %5.2f/%-5.2f %5.2f/%-5.2f  RS:%s DS:%s PS:%s\n",
			r.Case,
			r.RS.Static, r.RS.Dynamic,
			r.DS.Static, r.DS.Dynamic,
			r.PS.Static, r.PS.Dynamic,
			r.RSDSStatic, r.RSDSDynamic,
			r.RSPSStatic, r.RSPSDynamic,
			cap3(r.RSCaptures), cap3(r.DSCaptures), cap3(r.PSCaptures))
	}
}

// WriteTable3 renders Table 3 as text.
func WriteTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "Table 3. Effectiveness\n")
	fmt.Fprintf(w, "%-16s %9s %7s %6s %6s %13s %13s %8s\n",
		"Case", "prunings", "verifs", "iters", "edges", "IPS", "OS", "located")
	for _, r := range rows {
		loc := "YES"
		if !r.Located {
			loc = "NO"
		}
		fmt.Fprintf(w, "%-16s %9d %7d %6d %6d %6d/%-6d %6d/%-6d %8s\n",
			r.Case, r.UserPrunings, r.Verifications, r.Iterations, r.ExpandedEdges,
			r.IPS.Static, r.IPS.Dynamic, r.OS.Static, r.OS.Dynamic, loc)
	}
}

// WriteTable4 renders Table 4 as text.
func WriteTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "Table 4. Performance\n")
	fmt.Fprintf(w, "%-16s %12s %12s %12s %12s\n", "Case", "Plain", "Graph", "Verif.", "Graph/Plain")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %12s %12s %12s %12.1f\n",
			r.Case, r.Plain, r.Graph, r.Verify, r.GraphPlain)
	}
}

// Options parameterizes Render and the table builders that run whole
// localizations. The zero value reproduces the historical defaults.
type Options struct {
	// Reps is the timing repetitions for tables 4 and verify (0 = default).
	Reps int
	// Workers is the worker-pool size for the verify table's parallel
	// and cached modes (0 = default 4).
	Workers int
	// Cache overrides the cached mode's switched-run cache size
	// (0 = engine default, negative disables it).
	Cache int
	// Observer, if non-nil, observes the Table 3 localizations and the
	// verify table's warm-up round. Timed rounds always run unobserved
	// so observation never perturbs the measurements.
	Observer obs.Observer
	// Ctx bounds every localization a table builder runs
	// (nil = background): on expiry the builder returns the underlying
	// core error, matching interp.ErrDeadline/ErrCanceled via errors.Is.
	Ctx context.Context
}

// Render runs and renders the requested table ("1".."4", or "verify"
// for the verification-engine throughput comparison) into a string.
func Render(table string, opt Options) (string, error) {
	var sb strings.Builder
	switch table {
	case "verify", "5":
		rows, err := VerifyTable(opt)
		if err != nil {
			return "", err
		}
		WriteVerifyTable(&sb, rows)
	case "1":
		WriteTable1(&sb, Table1())
	case "2":
		rows, err := Table2()
		if err != nil {
			return "", err
		}
		WriteTable2(&sb, rows)
	case "3":
		rows, err := Table3(opt.Ctx, opt.Observer)
		if err != nil {
			return "", err
		}
		WriteTable3(&sb, rows)
	case "4":
		rows, err := Table4(opt.Ctx, opt.Reps)
		if err != nil {
			return "", err
		}
		WriteTable4(&sb, rows)
	default:
		return "", fmt.Errorf("unknown table %q (want 1-4 or verify)", table)
	}
	return sb.String(), nil
}
