// Package critpred implements the predicate-switching baseline the paper
// builds on: "Locating faults through automated predicate switching"
// (Zhang, Gupta, Gupta — ICSE 2006).
//
// A predicate instance is *critical* if forcibly inverting its branch
// outcome makes the failing run produce the expected output. The ICSE
// 2006 tool searches for a critical predicate by brute-force re-execution
// under two orderings:
//
//	LEFS   last-executed-first-switched: predicate instances in reverse
//	       execution order;
//	PRIOR  prioritized: instances on the dynamic slice of the wrong
//	       output first (ordered by dependence distance), then the rest
//	       in LEFS order.
//
// The PLDI 2007 paper repurposes switching to verify individual implicit
// dependences instead of searching for output repair; this package
// provides the original search as a baseline, so the re-execution counts
// of the two approaches can be compared (see the ablation benches).
package critpred

import (
	"sort"

	"eol/internal/backend"
	"eol/internal/depgraph"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/slicing"
	"eol/internal/trace"
)

// Strategy selects the search order.
type Strategy int

// Search orders.
const (
	LEFS Strategy = iota
	Prior
)

// String names the strategy.
func (s Strategy) String() string {
	if s == Prior {
		return "PRIOR"
	}
	return "LEFS"
}

// Options configure the search.
type Options struct {
	Strategy Strategy
	// MaxSwitches bounds the number of re-executions (0 = all instances).
	MaxSwitches int
}

// Result reports the search outcome.
type Result struct {
	// Found reports whether a critical predicate was identified.
	Found bool
	// Critical is the critical predicate instance.
	Critical trace.Instance
	// Switches counts the re-executions performed.
	Switches int
	// Candidates is how many predicate instances were eligible.
	Candidates int
}

// Search looks for a critical predicate in the failing run of c on input,
// judged against the expected output values.
func Search(c *interp.Compiled, input []int64, expected []int64, opts Options) *Result {
	res := &Result{}
	bk := backend.Default()
	orig := bk.Run(c, interp.Options{Input: input, BuildTrace: true})
	if orig.Err != nil || orig.Trace == nil {
		return res
	}
	order := candidateOrder(c, orig, expected, opts.Strategy)
	res.Candidates = len(order)

	// Each switched run is bounded like a verification's (ten times the
	// original run's length plus a constant).
	budget := 10*orig.Trace.Len() + 1000

	for _, inst := range order {
		if opts.MaxSwitches > 0 && res.Switches >= opts.MaxSwitches {
			return res
		}
		res.Switches++
		sw := bk.Run(c, interp.Options{
			Input:      input,
			Switch:     &interp.SwitchPlan{Stmt: inst.Stmt, Occ: inst.Occ},
			StepBudget: budget,
		})
		if sw.Err != nil || !sw.SwitchApplied {
			continue
		}
		if equalOutputs(sw.OutputValues(), expected) {
			res.Found = true
			res.Critical = inst
			return res
		}
	}
	return res
}

// candidateOrder enumerates predicate instances in the chosen order.
func candidateOrder(c *interp.Compiled, orig *interp.Result, expected []int64, s Strategy) []trace.Instance {
	tr := orig.Trace
	var all []int
	for i := 0; i < tr.Len(); i++ {
		st := c.Info.Stmt(tr.At(i).Inst.Stmt)
		if st != nil && ast.IsPredicate(st) {
			all = append(all, i)
		}
	}
	// LEFS: reverse execution order.
	sort.Sort(sort.Reverse(sort.IntSlice(all)))

	if s == Prior {
		seq, missing, ok := slicing.FirstWrongOutput(orig.OutputValues(), expected)
		if ok && !missing {
			seed := slicing.FailureSeeds(tr, seq)
			g := depgraph.New(tr)
			dist := g.Distances(depgraph.Explicit, seed)
			inSlice := func(i int) (int, bool) {
				if dist == nil || dist[i] < 0 {
					return 0, false
				}
				return int(dist[i]), true
			}
			sort.SliceStable(all, func(a, b int) bool {
				da, oka := inSlice(all[a])
				db, okb := inSlice(all[b])
				if oka != okb {
					return oka // sliced instances first
				}
				if oka && okb && da != db {
					return da < db // closer to the failure first
				}
				return all[a] > all[b] // then LEFS
			})
		}
	}

	insts := make([]trace.Instance, len(all))
	for i, idx := range all {
		insts[i] = tr.At(idx).Inst
	}
	return insts
}

func equalOutputs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
