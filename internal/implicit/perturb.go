package implicit

import (
	"errors"

	"eol/internal/align"
	"eol/internal/interp"
	"eol/internal/trace"
)

// PerturbRequest asks whether use entry Use depends on the *definition*
// at entry Def: the paper's §5 alternative to predicate switching.
// Where switching explores a binary domain (one branch outcome), value
// perturbation explores the integer domain of the defined value — more
// expensive, but able to expose the implicit dependences hidden by
// nested predicates that all test the same faulty value (the Table 5(b)
// soundness gap).
type PerturbRequest struct {
	Def int // trace index of the defining entry in the original run
	Use int // trace index of the use entry
	// Candidates are the replacement values to try (typically drawn from
	// a value profile). The original value is skipped automatically.
	Candidates []int64
}

// PerturbResult reports the outcome of a perturbation-based verification.
type PerturbResult struct {
	// Dependent reports whether some perturbation affected the use per
	// the paper's general dependence criterion ("disturbing the
	// execution of one statement affects the execution of the other"):
	// the matched point disappears, or the value it reads changes.
	Dependent bool
	// Witness is the candidate value that exposed the dependence.
	Witness int64
	// Reexecutions counts the perturbation runs performed.
	Reexecutions int
}

// PerturbVerify re-executes the program once per candidate value, each
// time overriding the value defined at Def, aligns the runs, and checks
// whether Use is affected. Runs that exceed the step budget are treated
// like timed-out verifications (no evidence).
func (v *Verifier) PerturbVerify(req PerturbRequest) *PerturbResult {
	res := &PerturbResult{}
	de := v.Orig.At(req.Def)
	ue := v.Orig.At(req.Use)
	budget := v.budget()

	// The values the use read in the original run, per location, for the
	// affected-value check.
	origVals := map[[2]int64]int64{}
	for _, u := range ue.Uses {
		origVals[[2]int64{int64(u.Sym), u.Elem}] = u.Val
	}

	for _, cand := range req.Candidates {
		if cand == de.Value {
			continue // identical to the original: no disturbance
		}
		res.Reexecutions++
		v.Verifications++
		run := v.backend().Run(v.C, interp.Options{
			Input:      v.Input,
			BuildTrace: true,
			Perturb: &interp.PerturbPlan{
				Stmt: de.Inst.Stmt, Occ: de.Inst.Occ, Value: cand,
			},
			StepBudget: budget,
			Ctx:        v.Ctx,
		})
		if interp.IsCancellation(run.Err) {
			// The verifier's context is gone: stop probing candidates; the
			// caller observes the cancellation on its own ctx checkpoint.
			return res
		}
		if errors.Is(run.Err, interp.ErrBudget) {
			continue
		}
		if !run.PerturbApplied || run.Trace == nil {
			continue
		}
		u, ok := align.Match(v.Orig, run.Trace, de.Inst, req.Use)
		if !ok {
			// The use disappeared: affected (condition (i) of Def. 2,
			// generalized).
			res.Dependent = true
			res.Witness = cand
			break
		}
		for _, use := range run.Trace.At(u).Uses {
			if orig, seen := origVals[[2]int64{int64(use.Sym), use.Elem}]; seen && orig != use.Val {
				res.Dependent = true
				res.Witness = cand
				break
			}
		}
		if res.Dependent {
			break
		}
	}
	verdict := NotID
	if res.Dependent {
		verdict = ID
	}
	v.Log = append(v.Log, LogEntry{
		Pred: de.Inst, Use: ue.Inst, Verdict: verdict,
		Perturbed: true, Value: res.Witness,
	})
	if v.Rec.Enabled() {
		// PerturbVerify runs only on the base verifier, sequentially, so
		// emitting here preserves the stream's determinism.
		v.Rec.Count("perturb_runs", int64(res.Reexecutions))
		v.Rec.Mark("verdict", int64(verdict),
			"def", de.Inst.String(), "use", ue.Inst.String(),
			"verdict", verdict.String(), "perturbed", "true")
	}
	return res
}

// ProfileCandidates extracts perturbation candidates for the statement of
// entry def from per-statement observed values, excluding the original.
func ProfileCandidates(orig *trace.Trace, def int, observed []int64, max int) []int64 {
	de := orig.At(def)
	var res []int64
	seen := map[int64]bool{de.Value: true}
	for _, v := range observed {
		if !seen[v] {
			seen[v] = true
			res = append(res, v)
			if max > 0 && len(res) >= max {
				break
			}
		}
	}
	return res
}
