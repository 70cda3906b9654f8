package harness

import (
	"strings"
	"testing"

	"eol/internal/depgraph"
)

// TestTable1 checks the benchmark inventory.
func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	total := 0
	for _, r := range rows {
		if r.LOC < 30 {
			t.Errorf("%s: LOC = %d, too small", r.Benchmark, r.LOC)
		}
		if r.Procedures < 1 {
			t.Errorf("%s: procedures = %d", r.Benchmark, r.Procedures)
		}
		total += r.ErrorCases
	}
	if total != 9 {
		t.Errorf("total error cases = %d, want 9", total)
	}
}

// TestTable2Claims verifies the paper's central Table 2 claims on every
// case: RS captures all execution omission errors; DS and PS miss all of
// them; RS ⊇ DS in both static and dynamic size.
func TestTable2Claims(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	dynBlowup := false
	for _, r := range rows {
		if !r.RSCaptures {
			t.Errorf("%s: RS must capture the root cause", r.Case)
		}
		if r.DSCaptures {
			t.Errorf("%s: DS must miss the root cause (execution omission)", r.Case)
		}
		if r.PSCaptures {
			t.Errorf("%s: PS must miss the root cause", r.Case)
		}
		if r.RS.Static < r.DS.Static || r.RS.Dynamic < r.DS.Dynamic {
			t.Errorf("%s: RS (%v) must be at least as large as DS (%v)", r.Case, r.RS, r.DS)
		}
		if r.PS.Dynamic > r.DS.Dynamic {
			t.Errorf("%s: PS (%v) must not exceed DS (%v)", r.Case, r.PS, r.DS)
		}
		// The paper: dynamic RS/DS ratios are much larger than static
		// ones in the aggregate.
		if r.RSDSDynamic > r.RSDSStatic+0.001 {
			dynBlowup = true
		}
	}
	if !dynBlowup {
		t.Error("expected at least one case where the dynamic RS/DS blow-up exceeds the static one")
	}
}

// TestTable3Claims verifies the effectiveness claims on every case: the
// locator captures every error; verifications, iterations and expanded
// edges stay small; IPS is close to OS.
func TestTable3Claims(t *testing.T) {
	rows, err := Table3(nil, nil)
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for _, r := range rows {
		if !r.Located {
			t.Errorf("%s: root cause not located", r.Case)
			continue
		}
		if r.Iterations < 1 || r.Iterations > 4 {
			t.Errorf("%s: iterations = %d, want small (1-4)", r.Case, r.Iterations)
		}
		if r.ExpandedEdges < 1 {
			t.Errorf("%s: no implicit edges were added", r.Case)
		}
		if r.Verifications < 1 {
			t.Errorf("%s: no verifications performed", r.Case)
		}
		if r.IPS.Dynamic == 0 {
			t.Errorf("%s: empty IPS", r.Case)
		}
		// IPS ≈ OS: the pruned expanded slice should not dwarf the
		// failure-inducing chain.
		if r.OS.Dynamic > 0 && r.IPS.Dynamic > 6*r.OS.Dynamic+10 {
			t.Errorf("%s: IPS (%v) much larger than OS (%v)", r.Case, r.IPS, r.OS)
		}
	}
	// The sed V3-F2 cascade needs two expansions (the paper's only
	// 2-iteration case).
	for _, r := range rows {
		if r.Case == "sedsim/V3-F2" && r.Iterations < 2 {
			t.Errorf("sedsim/V3-F2: iterations = %d, want >= 2 (chained omissions)", r.Iterations)
		}
	}
	// grep is the heaviest case in verifications.
	var grepV, maxOther int
	for _, r := range rows {
		if r.Case == "grepsim/V4-F2" {
			grepV = r.Verifications
		} else if r.Verifications > maxOther {
			maxOther = r.Verifications
		}
	}
	if grepV <= maxOther {
		t.Logf("note: grep verifications (%d) not the strict maximum (other max %d)", grepV, maxOther)
	}
}

// TestTable4Claims: graph construction must slow execution down
// noticeably (the paper reports 18x-155x with valgrind; a tracing
// interpreter shows smaller but clearly >1 factors).
func TestTable4Claims(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	rows, err := Table4(nil, 10)
	if err != nil {
		t.Fatalf("Table4: %v", err)
	}
	slower := 0
	for _, r := range rows {
		if r.GraphPlain > 1.0 {
			slower++
		}
		if r.Verify <= 0 {
			t.Errorf("%s: no verification time measured", r.Case)
		}
	}
	if slower < len(rows)/2 {
		t.Errorf("graph construction faster than plain in most cases (%d/%d slower)", slower, len(rows))
	}
}

func TestRender(t *testing.T) {
	out, err := Render("1", Options{Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "flexsim") || !strings.Contains(out, "Table 1") {
		t.Errorf("unexpected render:\n%s", out)
	}
	if _, err := Render("9", Options{Reps: 1}); err == nil {
		t.Error("unknown table must error")
	}
}

// TestTableWriters exercises the text renderers with synthetic rows.
func TestTableWriters(t *testing.T) {
	var sb strings.Builder
	WriteTable2(&sb, []Table2Row{{
		Case: "x/Y-1",
		RS:   ddgStats(5, 9), DS: ddgStats(3, 4), PS: ddgStats(2, 3),
		RSCaptures: true, RSDSStatic: 1.7, RSDSDynamic: 2.3,
	}})
	if !strings.Contains(sb.String(), "x/Y-1") || !strings.Contains(sb.String(), "RS:y DS:- PS:-") {
		t.Errorf("table 2 render:\n%s", sb.String())
	}
	sb.Reset()
	WriteTable3(&sb, []Table3Row{{Case: "x/Y-1", Located: false, IPS: ddgStats(1, 2), OS: ddgStats(1, 1)}})
	if !strings.Contains(sb.String(), "NO") {
		t.Errorf("table 3 render:\n%s", sb.String())
	}
	sb.Reset()
	WriteTable4(&sb, []Table4Row{{Case: "x/Y-1", GraphPlain: 3.5}})
	if !strings.Contains(sb.String(), "3.5") {
		t.Errorf("table 4 render:\n%s", sb.String())
	}
	sb.Reset()
	WriteAblationA(&sb, []AblationARow{{Case: "x", NaiveSanitizes: true, NaiveConf: 1, VerifiedKept: true}})
	WriteAblationC(&sb, []AblationCRow{{Case: "x", CritFound: true}})
	WriteAblationD(&sb, []AblationDRow{{Case: "x", StaticCaptures: true}})
	if !strings.Contains(sb.String(), "Ablation D") {
		t.Errorf("ablation renders:\n%s", sb.String())
	}
}

func ddgStats(st, dyn int) (s depgraph.SliceStats) {
	s.Static, s.Dynamic = st, dyn
	return s
}
