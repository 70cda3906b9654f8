package proptest

// End-to-end differential property for the incremental dependence-graph
// engine: running the full locator with incremental re-pruning on vs off
// must produce identical diagnoses — verdict, counters, VerifyLog, IPS
// entries and confidences — on randomly generated subjects with injected
// execution-omission faults. This is the whole-pipeline complement to
// the analyzer-level fuzz in internal/confidence.

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"eol/internal/core"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/oracle"
	"eol/internal/slicing"
	"eol/internal/testsupport"
)

func TestIncrementalRepruneDifferential(t *testing.T) {
	rnd := rand.New(rand.NewSource(20070611)) // PLDI 2007 conference date
	applicable := 0

	for i := 0; i < 300 && applicable < 12; i++ {
		src := testsupport.RandomProgram(rnd, testsupport.GenConfig{})
		correct, err := interp.Compile(src)
		if err != nil {
			t.Fatalf("generator produced a bad program: %v", err)
		}

		// Silence one if-condition, as in TestRandomFaultInjection.
		var ifs []string
		for _, s := range correct.Info.Stmts {
			if _, ok := s.(*ast.IfStmt); ok {
				text := ast.StmtString(s)
				if strings.Count(src, text[3:]) == 1 {
					ifs = append(ifs, text)
				}
			}
		}
		if len(ifs) == 0 {
			continue
		}
		target := ifs[rnd.Intn(len(ifs))]
		cond := strings.TrimSuffix(strings.TrimPrefix(target, "if ("), ")")
		faultySrc := strings.Replace(src, "if ("+cond+")", "if (("+cond+") && 0)", 1)
		faulty, err := interp.Compile(faultySrc)
		if err != nil || faulty.Info.NumStmts() != correct.Info.NumStmts() {
			continue
		}
		if testsupport.Validate(faulty) != nil {
			continue
		}

		var in []int64
		var cr *interp.Result
		exposed := false
		for try := 0; try < 8 && !exposed; try++ {
			in = testsupport.RandomInput(rnd, inputLen)
			cr = interp.Run(correct, interp.Options{Input: in, BuildTrace: true})
			fr := interp.Run(faulty, interp.Options{Input: in})
			if cr.Err != nil || fr.Err != nil {
				continue
			}
			seq, missing, ok := slicing.FirstWrongOutput(fr.OutputValues(), cr.OutputValues())
			if ok && !missing && seq >= 0 {
				exposed = true
			}
		}
		if !exposed {
			continue
		}
		applicable++

		root := 0
		for _, s := range faulty.Info.Stmts {
			if strings.Contains(ast.StmtString(s), "&& 0") {
				root = s.ID()
			}
		}

		specOf := func(full bool) *core.Spec {
			return &core.Spec{
				Program:   faulty,
				Input:     in,
				Expected:  cr.OutputValues(),
				RootCause: []int{root},
				Oracle:    &oracle.StateOracle{Correct: cr.Trace},
				Disable:   core.Disable{IncrementalReprune: full},
			}
		}
		want, err := core.Locate(specOf(true))
		if err != nil {
			t.Fatalf("Locate (full) crashed:\n%s\nerror: %v", faultySrc, err)
		}
		got, err := core.Locate(specOf(false))
		if err != nil {
			t.Fatalf("Locate (incremental) crashed:\n%s\nerror: %v", faultySrc, err)
		}

		if got.Located != want.Located || got.RootEntry != want.RootEntry {
			t.Fatalf("located %v@%d incremental, %v@%d full\n%s",
				got.Located, got.RootEntry, want.Located, want.RootEntry, faultySrc)
		}
		if got.Stats.UserPrunings != want.Stats.UserPrunings ||
			got.Stats.Verifications != want.Stats.Verifications ||
			got.Stats.Iterations != want.Stats.Iterations ||
			got.Stats.ExpandedEdges != want.Stats.ExpandedEdges {
			t.Fatalf("counter divergence incremental vs full on:\n%s", faultySrc)
		}
		if !reflect.DeepEqual(got.VerifyLog, want.VerifyLog) {
			t.Fatalf("VerifyLog divergence incremental vs full on:\n%s", faultySrc)
		}
		if !reflect.DeepEqual(got.IPSEntries, want.IPSEntries) ||
			!reflect.DeepEqual(got.IPSConfidence, want.IPSConfidence) {
			t.Fatalf("IPS divergence incremental vs full on:\n%s", faultySrc)
		}
	}
	if applicable < 6 {
		t.Fatalf("only %d applicable injected faults; generator too tame", applicable)
	}
	t.Logf("%d injected-fault subjects agreed incremental vs full", applicable)
}
