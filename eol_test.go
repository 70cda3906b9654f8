package eol

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"eol/internal/bench"
	"eol/internal/interp"
	"eol/internal/obs"
	"eol/internal/testsupport"
)

func fig1Session(t *testing.T) (*Session, *Program, *Program) {
	t.Helper()
	faulty := MustCompile(testsupport.Fig1Faulty)
	fixed := MustCompile(testsupport.Fig1Fixed)
	exp, err := fixed.Run(testsupport.Fig1Input)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(faulty, testsupport.Fig1Input, exp.Outputs())
	if err != nil {
		t.Fatal(err)
	}
	return s, faulty, fixed
}

func TestCompileAndRun(t *testing.T) {
	p := MustCompile(`func main() { print(2 + 3, " ", 4 * 5); }`)
	e, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e.Outputs(), []int64{5, 20}) {
		t.Errorf("outputs = %v", e.Outputs())
	}
	if e.Rendered() != "5 20\n" {
		t.Errorf("rendered = %q", e.Rendered())
	}
	if e.Steps() < 1 {
		t.Error("no steps counted")
	}
	if len(e.Instances()) != e.Steps() {
		t.Errorf("instances (%d) != steps (%d)", len(e.Instances()), e.Steps())
	}
	if _, err := Compile("func main() { x = ; }"); err == nil {
		t.Error("bad program must not compile")
	}
}

func TestProgramIntrospection(t *testing.T) {
	p := MustCompile(testsupport.Fig1Faulty)
	id, ok := p.FindStatement("flags = 0")
	if !ok {
		t.Fatal("FindStatement failed")
	}
	if got := p.StatementText(id); got != "flags = 0;" {
		t.Errorf("StatementText = %q", got)
	}
	if p.NumStatements() < 10 {
		t.Errorf("NumStatements = %d", p.NumStatements())
	}
	if !strings.Contains(p.Listing(), "S1 ") {
		t.Errorf("Listing missing labels:\n%s", p.Listing())
	}
}

func TestSessionWrongOutput(t *testing.T) {
	s, _, _ := fig1Session(t)
	seq, got, want, at := s.WrongOutput()
	if seq != 1 || got != 0 || want != 8 {
		t.Errorf("WrongOutput = (%d, %d, %d)", seq, got, want)
	}
	if at.Stmt == 0 {
		t.Error("no producing instance")
	}
}

func TestSessionSlices(t *testing.T) {
	s, faulty, _ := fig1Session(t)
	root, _ := faulty.FindStatement("read() * 0")

	ds := s.DynamicSlice()
	rs := s.RelevantSlice()
	if ds.ContainsStmt(root) {
		t.Error("DS must miss the root cause")
	}
	if !rs.ContainsStmt(root) {
		t.Error("RS must contain the root cause")
	}
	if rs.Dynamic < ds.Dynamic || rs.Static < ds.Static {
		t.Errorf("RS (%d/%d) smaller than DS (%d/%d)", rs.Static, rs.Dynamic, ds.Static, ds.Dynamic)
	}
	if len(ds.Instances) != ds.Dynamic || len(ds.Statements) != ds.Static {
		t.Error("inconsistent slice counts")
	}
}

// TestSliceStatementsAscending: a slice lists its statement IDs in
// ascending order, each once, and the same list on every call.
func TestSliceStatementsAscending(t *testing.T) {
	c := bench.ByName("grepsim/V4-F2")
	src, err := c.FaultySrc()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := MustCompile(c.CorrectSrc).Run(c.FailingInput)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(MustCompile(src), c.FailingInput, exp.Outputs())
	if err != nil {
		t.Fatal(err)
	}
	for name, slice := range map[string]func() Slice{"dynamic": s.DynamicSlice, "relevant": s.RelevantSlice} {
		first := slice()
		if len(first.Statements) != first.Static || first.Static < 10 {
			t.Fatalf("%s slice: %d statements, Static %d", name, len(first.Statements), first.Static)
		}
		for i := 1; i < len(first.Statements); i++ {
			if first.Statements[i] <= first.Statements[i-1] {
				t.Fatalf("%s slice statements not ascending: %v", name, first.Statements)
			}
		}
		for k := 0; k < 5; k++ {
			if got := slice().Statements; !slices.Equal(got, first.Statements) {
				t.Fatalf("%s slice statements changed between calls: %v, then %v", name, first.Statements, got)
			}
		}
	}
}

func TestSessionVerify(t *testing.T) {
	s, faulty, _ := fig1Session(t)
	ifID, _ := faulty.FindStatement("if (saveOrigName)")
	useID, _ := faulty.FindStatement("outbuf[outcnt] = flags")

	v, err := s.VerifyImplicitDependence(
		Instance{Stmt: ifID, Occ: 1}, Instance{Stmt: useID, Occ: 1}, "flags")
	if err != nil {
		t.Fatal(err)
	}
	if v != StrongImplicit {
		t.Errorf("verdict = %v, want STRONG_ID", v)
	}
	if v.String() != "STRONG_ID" {
		t.Errorf("String = %q", v.String())
	}

	if _, err := s.VerifyImplicitDependence(Instance{Stmt: ifID, Occ: 1},
		Instance{Stmt: useID, Occ: 1}, "nosuchvar"); err == nil {
		t.Error("unknown variable must error")
	}
}

func TestSessionPotentialDependences(t *testing.T) {
	s, faulty, _ := fig1Session(t)
	useID, _ := faulty.FindStatement("outbuf[outcnt] = flags")
	ifID, _ := faulty.FindStatement("if (saveOrigName)")
	pds := s.PotentialDependences(Instance{Stmt: useID, Occ: 1})
	found := false
	for _, p := range pds {
		if p.Stmt == ifID {
			found = true
		}
	}
	if !found {
		t.Errorf("PD = %v, want to include the if at S%d", pds, ifID)
	}
}

func TestSessionLocate(t *testing.T) {
	s, faulty, fixed := fig1Session(t)
	root, _ := faulty.FindStatement("read() * 0")

	// Ground-truth oracle via the fixed program: state is benign iff the
	// statement instance's effect matches the fixed run. For this API
	// test a simple text-based oracle suffices: only the chain statements
	// are corrupted.
	ifID, _ := faulty.FindStatement("if (saveOrigName)")
	writeID, _ := faulty.FindStatement("outbuf[outcnt] = flags")
	printID, _ := faulty.FindStatement("print(outbuf[1])")
	corrupted := map[int]bool{root: true, ifID: true, writeID: true, printID: true}

	diag, err := s.Locate(
		WithRootCause(root),
		WithOracle(func(inst Instance, text string) bool {
			return !corrupted[inst.Stmt]
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Located {
		t.Fatalf("not located: %s", diag.Explain())
	}
	if diag.Root.Stmt != root {
		t.Errorf("root = %v, want S%d", diag.Root, root)
	}
	if diag.Stats.StrongEdges < 1 {
		t.Errorf("no strong edges: %+v", diag)
	}
	if len(diag.Candidates) == 0 {
		t.Error("empty candidate list")
	}
	text := diag.Explain()
	if !strings.Contains(text, "root cause located") || !strings.Contains(text, "read() * 0") {
		t.Errorf("Explain:\n%s", text)
	}
	_ = fixed
}

func TestSessionNoFailure(t *testing.T) {
	fixed := MustCompile(testsupport.Fig1Fixed)
	e, err := fixed.Run(testsupport.Fig1Input)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(fixed, testsupport.Fig1Input, e.Outputs()); !errors.Is(err, ErrNoFailure) {
		t.Errorf("err = %v, want ErrNoFailure", err)
	}
}

// TestLocateCorrectVersionRunFails: a correct version whose run fails
// cannot serve as the oracle, so Locate reports the failure instead of
// localizing without one.
func TestLocateCorrectVersionRunFails(t *testing.T) {
	s, faulty, _ := fig1Session(t)
	root, _ := faulty.FindStatement("read() * 0")
	broken := MustCompile(`
var buf[2];
func main() {
    print(buf[read() + 5]);
}`)
	diag, err := s.Locate(WithRootCause(root), WithCorrectVersion(broken))
	if err == nil {
		t.Fatalf("Locate succeeded without its oracle: located=%v, %d user prunings",
			diag.Located, diag.Stats.UserPrunings)
	}
	if !errors.Is(err, interp.ErrBounds) || !strings.Contains(err.Error(), "correct version run") {
		t.Errorf("error %q does not report the correct run's fault", err)
	}
	if diag != nil {
		t.Errorf("got a Diagnosis alongside the error: %+v", diag)
	}
}

func TestRunSwitched(t *testing.T) {
	faulty := MustCompile(testsupport.Fig1Faulty)
	ifID, _ := faulty.FindStatement("if (saveOrigName)")
	e, err := faulty.RunSwitched(testsupport.Fig1Input, Instance{Stmt: ifID, Occ: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Switching repairs the flags byte.
	if e.Outputs()[1] != 8 {
		t.Errorf("switched outputs = %v, want flags byte 8", e.Outputs())
	}
}

func TestProfileRunsAccepted(t *testing.T) {
	s, _, _ := fig1Session(t)
	if err := s.AddProfileRun([]int64{0}); err != nil {
		t.Fatal(err)
	}
	// Locating still works with a profile present.
	diag, err := s.Locate()
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.Candidates) == 0 {
		t.Error("no candidates")
	}
}

// TestVerifyByPerturbation exercises the §5 extension through the public
// API on the Table 5(b) scenario.
func TestVerifyByPerturbation(t *testing.T) {
	faultySrc := `
func main() {
    var A = read() * 0 + 5;
    var X = 1;
    if (A > 10) {
        if (A > 100) {
            X = 2;
        }
    }
    print(X);
}`
	p := MustCompile(faultySrc)
	s, err := NewSession(p, []int64{200}, []int64{2})
	if err != nil {
		t.Fatal(err)
	}
	aID, _ := p.FindStatement("var A =")
	prID, _ := p.FindStatement("print(X)")

	dep, witness, reexec, err := s.VerifyByPerturbation(
		Instance{Stmt: aID, Occ: 1}, Instance{Stmt: prID, Occ: 1},
		[]int64{7, 50, 200})
	if err != nil {
		t.Fatal(err)
	}
	if !dep || witness != 200 {
		t.Errorf("dep=%v witness=%d, want dependence via 200", dep, witness)
	}
	if reexec == 0 {
		t.Error("no re-executions counted")
	}

	// The full locator with the fallback finds the root cause.
	root, _ := p.FindStatement("read() * 0 + 5")
	diag, err := s.Locate(WithRootCause(root), WithPerturbFallback())
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Located {
		t.Errorf("perturbation fallback did not locate:\n%s", diag.Explain())
	}
}

// TestFacadeSurface covers the remaining public helpers: plain runs,
// alignment, pruned slices, confidences, and the remaining options.
func TestFacadeSurface(t *testing.T) {
	faulty := MustCompile(testsupport.Fig1Faulty)
	if !strings.Contains(faulty.Source(), "saveOrigName") {
		t.Error("Source lost the program text")
	}
	plain, err := faulty.RunPlain(testsupport.Fig1Input)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Instances()) != 0 {
		t.Error("plain run must have no trace instances")
	}
	if !reflect.DeepEqual(plain.Outputs(), []int64{8, 0}) {
		t.Errorf("plain outputs = %v", plain.Outputs())
	}

	// AlignPoint across a switched run.
	ifID, _ := faulty.FindStatement("if (saveOrigName)")
	prID, _ := faulty.FindStatement("print(outbuf[0])")
	orig, err := faulty.Run(testsupport.Fig1Input)
	if err != nil {
		t.Fatal(err)
	}
	switched, err := faulty.RunSwitched(testsupport.Fig1Input, Instance{Stmt: ifID, Occ: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, ok := AlignPoint(orig, switched, Instance{Stmt: ifID, Occ: 1}, Instance{Stmt: prID, Occ: 1})
	if !ok || m.Stmt != prID {
		t.Errorf("AlignPoint = (%v, %v)", m, ok)
	}
	// Plain executions cannot be aligned.
	if _, ok := AlignPoint(plain, switched, Instance{Stmt: ifID, Occ: 1}, Instance{Stmt: prID, Occ: 1}); ok {
		t.Error("AlignPoint on a plain run must fail")
	}

	// PrunedSlice and Confidence.
	s, err := NewSession(faulty, testsupport.Fig1Input, []int64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	ps := s.PrunedSlice()
	if len(ps) == 0 {
		t.Fatal("empty pruned slice")
	}
	if ps[0].Confidence != 0 {
		t.Errorf("top candidate confidence = %v, want 0", ps[0].Confidence)
	}
	writeID, _ := faulty.FindStatement("outbuf[outcnt] = flags")
	conf, ok := s.Confidence(Instance{Stmt: writeID, Occ: 1})
	if !ok || conf != 0 {
		t.Errorf("Confidence(flags store) = (%v, %v), want (0, true)", conf, ok)
	}
	if _, ok := s.Confidence(Instance{Stmt: writeID, Occ: 99}); ok {
		t.Error("Confidence of a non-executed instance must fail")
	}

	// Verdict strings.
	if NotImplicit.String() != "NOT_ID" || Implicit.String() != "ID" {
		t.Error("verdict strings broken")
	}

	// Remaining locate options compose without breaking localization.
	root, _ := faulty.FindStatement("read() * 0")
	fixed := MustCompile(testsupport.Fig1Fixed)
	diag, err := s.Locate(
		WithRootCause(root),
		WithCorrectVersion(fixed),
		WithPathMode(),
		WithMaxIterations(5),
		WithCrossFunctionPD(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Located {
		t.Errorf("locate with all options failed:\n%s", diag.Explain())
	}
}

// TestObserverAndTimeline exercises the observability surface: the
// journal observer produces a schema-valid JSONL stream, WithTimeline
// captures the same events on the Diagnosis, and the stream agrees with
// the final Stats.
func TestObserverAndTimeline(t *testing.T) {
	s, faulty, fixed := fig1Session(t)
	root, _ := faulty.FindStatement("read() * 0")

	var buf bytes.Buffer
	j := NewJournal(&buf)
	diag, err := s.Locate(
		WithRootCause(root),
		WithCorrectVersion(fixed),
		WithObserver(j),
		WithTimeline(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if !diag.Located {
		t.Fatalf("not located:\n%s", diag.Explain())
	}
	if err := obs.ValidateJournal(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("journal does not validate: %v", err)
	}
	if len(diag.Timeline) == 0 {
		t.Fatal("WithTimeline captured no events")
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(diag.Timeline) {
		t.Errorf("journal has %d lines, timeline %d events", lines, len(diag.Timeline))
	}
	// The final gauges mirror Diagnosis.Stats.
	gauges := map[string]int64{}
	for _, e := range diag.Timeline {
		if e.Kind == obs.KindGauge {
			gauges[e.Name] = e.Value
		}
	}
	if gauges["verifications"] != int64(diag.Stats.Verifications) {
		t.Errorf("verifications gauge = %d, stats say %d",
			gauges["verifications"], diag.Stats.Verifications)
	}
	if gauges["switched_runs"] != diag.Stats.SwitchedRuns {
		t.Errorf("switched_runs gauge = %d, stats say %d",
			gauges["switched_runs"], diag.Stats.SwitchedRuns)
	}
	if loc, ok := gauges["located"]; !ok || loc != 1 {
		t.Errorf("located gauge = %d (present=%v), want 1", loc, ok)
	}

	// Timeline without an explicit observer works too, on a fresh session.
	s2, _, _ := fig1Session(t)
	diag2, err := s2.Locate(
		WithRootCause(root),
		WithCorrectVersion(fixed),
		WithTimeline(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(diag2.Timeline) != len(diag.Timeline) {
		t.Errorf("timeline-only run captured %d events, observer run %d",
			len(diag2.Timeline), len(diag.Timeline))
	}
}

// TestWithSettings checks the bulk-configuration option and that applied
// settings persist on the session.
func TestWithSettings(t *testing.T) {
	s, faulty, fixed := fig1Session(t)
	root, _ := faulty.FindStatement("read() * 0")
	diag, err := s.Locate(WithSettings(Settings{
		RootCause:     []int{root},
		Correct:       fixed,
		VerifyWorkers: 2,
		MaxIterations: 5,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Located {
		t.Fatalf("not located:\n%s", diag.Explain())
	}
}
