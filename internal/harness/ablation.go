package harness

import (
	"context"
	"fmt"
	"io"
	"strings"

	"eol/internal/backend"
	"eol/internal/bench"
	"eol/internal/confidence"
	"eol/internal/core"
	"eol/internal/critpred"
	"eol/internal/depgraph"
	"eol/internal/interp"
	"eol/internal/slicing"
	"eol/internal/trace"
)

// AblationARow reports the "relevant slicing + confidence" shortcut
// (§3.2 of the paper) against the verified-edge approach for one case.
type AblationARow struct {
	Case string
	// NaiveSanitizes reports whether the naive combination pins the
	// root-cause instance at confidence 1 (pruning it away).
	NaiveSanitizes bool
	// NaiveConf / VerifiedConf are the root instance's confidences under
	// the two schemes (verified-edge scheme measured after localization).
	NaiveConf    float64
	VerifiedKept bool // the verified approach keeps the root as candidate
}

// AblationA runs the naive RS+confidence combination on every case: all
// potential edges are added unverified and confidence flows across them.
// The paper predicts this sanitizes root causes; the verified approach
// (Table 3) keeps them.
func AblationA(ctx context.Context) ([]AblationARow, error) {
	var rows []AblationARow
	for _, c := range bench.Cases() {
		p, err := c.Prepare()
		if err != nil {
			return nil, err
		}
		tr := p.Run.Trace
		seq, missing, ok := slicing.FirstWrongOutput(p.Run.OutputValues(), p.Expected)
		if !ok || missing {
			return nil, fmt.Errorf("%s: no wrong-value failure", c.Name())
		}
		seed := slicing.FailureSeeds(tr, seq)
		cx := slicing.NewContext(p.Faulty, tr)

		// Relevant slicing adds every potential edge to the graph; also
		// expand PD for entries reachable from the correct outputs so the
		// naive pinning has false edges to cross (the paper's S9 -> S7).
		g := depgraph.New(tr)
		cx.Relevant(g, seed)
		var correct []trace.Output
		for i := 0; i < seq; i++ {
			correct = append(correct, *tr.OutputAt(i))
			g.BackwardSlice(depgraph.Explicit, tr.OutputAt(i).Entry).ForEach(func(e int) {
				for _, pd := range cx.PotentialDeps(e) {
					g.AddEdge(e, pd.Pred, depgraph.Potential)
				}
			})
		}

		an := confidence.New(p.Faulty, g, p.Profile, correct, *tr.OutputAt(seq))
		an.Kinds |= depgraph.Potential
		an.Naive = true
		an.Compute()

		// Root instances: any executed instance of the root statement.
		row := AblationARow{Case: c.Name(), NaiveSanitizes: true}
		for _, e := range tr.InstancesOf(p.RootStmt) {
			conf := an.Confidence(e)
			if conf > row.NaiveConf {
				row.NaiveConf = conf
			}
			if conf < 1 {
				row.NaiveSanitizes = false
			}
		}

		// The verified approach: did Table 3's run keep the root?
		rep, err := core.LocateContext(ctx, p.Spec())
		if err != nil {
			return nil, err
		}
		row.VerifiedKept = rep.Located
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationBRow compares Algorithm 2's data-dependence-EDGE approximation
// against the safe explicit-PATH variant of Definition 2.
type AblationBRow struct {
	Case              string
	EdgeVerifications int
	PathVerifications int
	EdgeIterations    int
	PathIterations    int
	EdgeLocated       bool
	PathLocated       bool
}

// AblationB runs the locator in both verification modes on every case.
func AblationB(ctx context.Context) ([]AblationBRow, error) {
	var rows []AblationBRow
	for _, c := range bench.Cases() {
		p, err := c.Prepare()
		if err != nil {
			return nil, err
		}
		edgeSpec := p.Spec()
		edgeRep, err := core.LocateContext(ctx, edgeSpec)
		if err != nil {
			return nil, err
		}
		pathSpec := p.Spec()
		pathSpec.PathMode = true
		pathRep, err := core.LocateContext(ctx, pathSpec)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationBRow{
			Case:              c.Name(),
			EdgeVerifications: edgeRep.Stats.Verifications,
			PathVerifications: pathRep.Stats.Verifications,
			EdgeIterations:    edgeRep.Stats.Iterations,
			PathIterations:    pathRep.Stats.Iterations,
			EdgeLocated:       edgeRep.Located,
			PathLocated:       pathRep.Located,
		})
	}
	return rows, nil
}

// AblationCRow compares the demand-driven locator against the ICSE 2006
// critical-predicate search (brute-force whole-output repair).
type AblationCRow struct {
	Case string
	// LocatorVerifs is the locator's re-execution count; CritSwitches the
	// baseline's. CritFound reports whether a single switch repairs the
	// whole output; CritNamesRoot whether the critical predicate is the
	// root-cause statement itself.
	LocatorVerifs int
	CritSwitches  int
	CritFound     bool
	CritNamesRoot bool
	LocatorFound  bool
}

// AblationC runs the predicate-switching baseline next to the locator.
func AblationC(ctx context.Context) ([]AblationCRow, error) {
	var rows []AblationCRow
	for _, c := range bench.Cases() {
		p, err := c.Prepare()
		if err != nil {
			return nil, err
		}
		rep, err := core.LocateContext(ctx, p.Spec())
		if err != nil {
			return nil, err
		}
		res := critpred.Search(p.Faulty, c.FailingInput, p.Expected,
			critpred.Options{Strategy: critpred.Prior})
		rows = append(rows, AblationCRow{
			Case:          c.Name(),
			LocatorVerifs: rep.Stats.Verifications,
			CritSwitches:  res.Switches,
			CritFound:     res.Found,
			CritNamesRoot: res.Found && res.Critical.Stmt == p.RootStmt,
			LocatorFound:  rep.Located,
		})
	}
	return rows, nil
}

// WriteAblationA renders the §3.2 ablation.
func WriteAblationA(w io.Writer, rows []AblationARow) {
	fmt.Fprintf(w, "Ablation A. Naive relevant-slicing + confidence (§3.2 pitfall)\n")
	fmt.Fprintf(w, "%-16s %16s %10s %14s\n", "Case", "naive sanitizes", "naiveConf", "verified keeps")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %16v %10.3f %14v\n", r.Case, r.NaiveSanitizes, r.NaiveConf, r.VerifiedKept)
	}
}

// WriteAblationB renders the edges-vs-paths ablation.
func WriteAblationB(w io.Writer, rows []AblationBRow) {
	fmt.Fprintf(w, "Ablation B. VerifyDep: data-dependence edges vs explicit paths\n")
	fmt.Fprintf(w, "%-16s %12s %12s %10s %10s %8s %8s\n",
		"Case", "edge verifs", "path verifs", "edge iter", "path iter", "edge ok", "path ok")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %12d %12d %10d %10d %8v %8v\n",
			r.Case, r.EdgeVerifications, r.PathVerifications,
			r.EdgeIterations, r.PathIterations, r.EdgeLocated, r.PathLocated)
	}
}

// WriteAblationC renders the critical-predicate baseline comparison.
func WriteAblationC(w io.Writer, rows []AblationCRow) {
	fmt.Fprintf(w, "Ablation C. Demand-driven locator vs ICSE'06 critical-predicate search\n")
	fmt.Fprintf(w, "%-16s %14s %13s %10s %11s %11s\n",
		"Case", "locator verifs", "crit switches", "crit found", "names root", "locator ok")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %14d %13d %10v %11v %11v\n",
			r.Case, r.LocatorVerifs, r.CritSwitches, r.CritFound, r.CritNamesRoot, r.LocatorFound)
	}
}

// RenderAblation runs and renders ablation "A", "B" or "C".
func RenderAblation(ctx context.Context, name string) (string, error) {
	var sb strings.Builder
	switch strings.ToUpper(name) {
	case "A":
		rows, err := AblationA(ctx)
		if err != nil {
			return "", err
		}
		WriteAblationA(&sb, rows)
	case "B":
		rows, err := AblationB(ctx)
		if err != nil {
			return "", err
		}
		WriteAblationB(&sb, rows)
	case "C":
		rows, err := AblationC(ctx)
		if err != nil {
			return "", err
		}
		WriteAblationC(&sb, rows)
	case "D":
		rows, err := AblationD(ctx)
		if err != nil {
			return "", err
		}
		WriteAblationD(&sb, rows)
	default:
		return "", fmt.Errorf("unknown ablation %q (want A, B, C or D)", name)
	}
	return sb.String(), nil
}

// AblationDRow compares the two sources of Definition 1's condition (iv):
// the static potential-reaching analysis (this reproduction's default)
// against the exercised union dependence graph (the paper's prototype,
// built here from each case's passing test suite plus the failing run).
type AblationDRow struct {
	Case           string
	StaticRS       depgraph.SliceStats
	UnionRS        depgraph.SliceStats
	StaticCaptures bool
	UnionCaptures  bool
}

// AblationD computes RS under both PD sources for every case.
func AblationD(ctx context.Context) ([]AblationDRow, error) {
	var rows []AblationDRow
	for _, c := range bench.Cases() {
		p, err := c.Prepare()
		if err != nil {
			return nil, err
		}
		tr := p.Run.Trace
		seq, missing, ok := slicing.FirstWrongOutput(p.Run.OutputValues(), p.Expected)
		if !ok || missing {
			return nil, fmt.Errorf("%s: no wrong-value failure", c.Name())
		}
		seed := slicing.FailureSeeds(tr, seq)

		cx := slicing.NewContext(p.Faulty, tr)
		gStatic := depgraph.New(tr)
		rsStatic := cx.Relevant(gStatic, seed)

		// Union graph from the faulty binary's test suite + the failing
		// run itself (the prototype unioned "a large number of test
		// cases"; the failing run was among the executions available).
		u := slicing.NewUnionGraph()
		for _, in := range c.PassingInputs {
			r := backend.Default().Run(p.Faulty, interp.Options{Input: in, BuildTrace: true})
			if r.Err != nil {
				return nil, r.Err
			}
			u.AddTrace(r.Trace)
		}
		u.AddTrace(tr)

		cxU := slicing.NewContext(p.Faulty, tr)
		cxU.Union = u
		gUnion := depgraph.New(tr)
		rsUnion := cxU.Relevant(gUnion, seed)

		rows = append(rows, AblationDRow{
			Case:           c.Name(),
			StaticRS:       gStatic.Stats(rsStatic),
			UnionRS:        gUnion.Stats(rsUnion),
			StaticCaptures: gStatic.ContainsStmt(rsStatic, p.RootStmt),
			UnionCaptures:  gUnion.ContainsStmt(rsUnion, p.RootStmt),
		})
	}
	return rows, nil
}

// WriteAblationD renders the PD-source comparison.
func WriteAblationD(w io.Writer, rows []AblationDRow) {
	fmt.Fprintf(w, "Ablation D. Potential-dependence source: static analysis vs union graph\n")
	fmt.Fprintf(w, "%-16s %15s %15s %11s %11s\n",
		"Case", "static RS", "union RS", "static cap", "union cap")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %7d/%-7d %7d/%-7d %11v %11v\n",
			r.Case, r.StaticRS.Static, r.StaticRS.Dynamic,
			r.UnionRS.Static, r.UnionRS.Dynamic,
			r.StaticCaptures, r.UnionCaptures)
	}
}
