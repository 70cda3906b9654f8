// Package report renders a human-readable debugging report for one
// localization run: the failure observation, the slice comparison, the
// verification log (which predicate switches were tried and what they
// proved), the verified implicit dependence edges, and the final fault
// candidate set with source excerpts — the artifact a programmer would
// actually read after running the tool.
package report

import (
	"fmt"
	"io"
	"strings"

	"eol/internal/core"
	"eol/internal/depgraph"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/slicing"
	"eol/internal/trace"
)

// Input bundles what the renderer needs.
type Input struct {
	Program *interp.Compiled
	Report  *core.Report
	// RootCause, if known (seeded-fault evaluation), is highlighted.
	RootCause []int
}

// WriteMarkdown renders the report as markdown.
func WriteMarkdown(w io.Writer, in Input) error {
	p := in.Program
	rep := in.Report
	tr := rep.Trace

	stmtText := func(id int) string {
		s := p.Info.Stmt(id)
		if s == nil {
			return "?"
		}
		return ast.StmtString(s)
	}
	instText := func(i trace.Instance) string {
		return fmt.Sprintf("`%v` `%s`", i, stmtText(i.Stmt))
	}
	isRoot := func(stmt int) bool {
		for _, rc := range in.RootCause {
			if rc == stmt {
				return true
			}
		}
		return false
	}

	fmt.Fprintf(w, "# Execution omission localization report\n\n")

	// Failure observation.
	fmt.Fprintf(w, "## Failure\n\n")
	at := tr.At(rep.WrongOutput.Entry).Inst
	fmt.Fprintf(w, "Output #%d printed **%d**, expected **%d**, at %s.\n\n",
		rep.WrongOutput.Seq, rep.WrongOutput.Value, rep.Vexp, instText(at))

	// Slice comparison.
	g := depgraph.New(tr)
	ds := slicing.Dynamic(g, rep.WrongOutput.Entry)
	dsStats := g.Stats(ds)
	fmt.Fprintf(w, "## Slices\n\n")
	fmt.Fprintf(w, "| slice | statements | instances | contains root cause |\n")
	fmt.Fprintf(w, "|---|---|---|---|\n")
	containsRoot := func(set *depgraph.Set) string {
		if len(in.RootCause) == 0 {
			return "n/a"
		}
		for _, rc := range in.RootCause {
			if g.ContainsStmt(set, rc) {
				return "yes"
			}
		}
		return "no"
	}
	fmt.Fprintf(w, "| dynamic slice (DS) | %d | %d | %s |\n",
		dsStats.Static, dsStats.Dynamic, containsRoot(ds))
	ips := depgraph.NewSet(tr.Len())
	for _, e := range rep.IPSEntries {
		ips.Add(e)
	}
	fmt.Fprintf(w, "| final pruned expanded slice (IPS) | %d | %d | %s |\n\n",
		rep.IPS.Static, rep.IPS.Dynamic, containsRoot(ips))

	// Counters.
	fmt.Fprintf(w, "## Effort\n\n")
	fmt.Fprintf(w, "%d user prunings, %d verifications, %d expansion iterations, %d implicit edges added (%d strong).\n\n",
		rep.Stats.UserPrunings, rep.Stats.Verifications, rep.Stats.Iterations,
		rep.Stats.ExpandedEdges, rep.Graph.NumExtraEdges(depgraph.StrongImplicit))

	// Verification log.
	if len(rep.VerifyLog) > 0 {
		fmt.Fprintf(w, "## Verification log\n\n")
		for i, le := range rep.VerifyLog {
			mode := "switch"
			if le.Perturbed {
				mode = "perturb"
			}
			fmt.Fprintf(w, "%2d. %s %s → affects %s: **%s**",
				i+1, mode, instText(le.Pred), instText(le.Use), le.Verdict)
			if le.Perturbed && le.Verdict != 0 {
				fmt.Fprintf(w, " (witness value %d)", le.Value)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}

	// Verified edges.
	var edges []string
	for i := 0; i < tr.Len(); i++ {
		for _, e := range rep.Graph.ExtraEdges(i) {
			if e.Kind == depgraph.Implicit || e.Kind == depgraph.StrongImplicit {
				edges = append(edges, fmt.Sprintf("- %s --%s--> %s",
					instText(tr.At(i).Inst), e.Kind, instText(tr.At(e.To).Inst)))
			}
		}
	}
	if len(edges) > 0 {
		fmt.Fprintf(w, "## Verified implicit dependences\n\n%s\n\n", strings.Join(edges, "\n"))
	}

	// Final candidates.
	fmt.Fprintf(w, "## Fault candidates (most suspicious first)\n\n")
	for i, e := range rep.IPSEntries {
		inst := tr.At(e).Inst
		marker := ""
		if isRoot(inst.Stmt) {
			marker = "  ← **ROOT CAUSE**"
		}
		conf := 0.0
		if i < len(rep.IPSConfidence) {
			conf = rep.IPSConfidence[i]
		}
		fmt.Fprintf(w, "%2d. %s (confidence %.3f)%s\n", i+1, instText(inst), conf, marker)
	}
	fmt.Fprintln(w)

	if rep.Located {
		inst := tr.At(rep.RootEntry).Inst
		fmt.Fprintf(w, "**Root cause located:** %s\n", instText(inst))
	} else if len(in.RootCause) > 0 {
		fmt.Fprintf(w, "**Root cause not located.**\n")
	}
	return nil
}

// Markdown renders to a string.
func Markdown(in Input) string {
	var sb strings.Builder
	_ = WriteMarkdown(&sb, in)
	return sb.String()
}
