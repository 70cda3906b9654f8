// Package cmd_test builds the command-line tools once and drives them
// end-to-end on the Fig. 1 test programs — integration coverage for the
// binaries themselves (flag parsing, file IO, output formats).
package cmd_test

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"eol/internal/obs"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
	repoRoot  string
)

// bin builds (once) and returns the path of the named tool.
func bin(t *testing.T, name string) string {
	t.Helper()
	buildOnce.Do(func() {
		var err error
		repoRoot, err = filepath.Abs("..")
		if err != nil {
			buildErr = err
			return
		}
		binDir, err = os.MkdirTemp("", "eolbin")
		if err != nil {
			buildErr = err
			return
		}
		for _, tool := range []string{"minic", "slicer", "eoloc", "benchtab", "eolvet", "eolcorpus", "eolshell", "critpred", "journalcheck"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "./cmd/"+tool)
			cmd.Dir = repoRoot
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = err
				t.Logf("build %s: %s", tool, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v", buildErr)
	}
	return filepath.Join(binDir, name)
}

func runTool(t *testing.T, name string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin(t, name), args...)
	cmd.Dir = repoRoot
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// runExit runs a tool and returns its combined output and exit code.
func runExit(t *testing.T, name string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin(t, name), args...)
	cmd.Dir = repoRoot
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	return string(out), ee.ExitCode()
}

func TestMinicRun(t *testing.T) {
	out, err := runTool(t, "minic", "-input", "1", "testdata/fig1_faulty.mc")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if out != "8\n0\n" {
		t.Errorf("output = %q, want \"8\\n0\\n\"", out)
	}
}

func TestMinicList(t *testing.T) {
	out, err := runTool(t, "minic", "-list", "testdata/fig1_faulty.mc")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "S5") || !strings.Contains(out, "read() * 0") {
		t.Errorf("listing missing statements:\n%s", out)
	}
}

func TestMinicSwitch(t *testing.T) {
	// Switching the first saveOrigName if (S8) repairs the flags byte.
	out, err := runTool(t, "minic", "-input", "1", "-switch", "8:1", "testdata/fig1_faulty.mc")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.HasPrefix(out, "8\n8\n") {
		t.Errorf("switched output = %q, want to start with \"8\\n8\\n\"", out)
	}
}

func TestMinicPerturb(t *testing.T) {
	out, err := runTool(t, "minic", "-input", "1", "-perturb", "5:1:1", "testdata/fig1_faulty.mc")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.HasPrefix(out, "8\n8\n") {
		t.Errorf("perturbed output = %q", out)
	}
}

func TestMinicBadFlags(t *testing.T) {
	if out, err := runTool(t, "minic", "-switch", "zz", "testdata/fig1_faulty.mc"); err == nil {
		t.Errorf("bad -switch accepted:\n%s", out)
	}
	if out, err := runTool(t, "minic", "nosuchfile.mc"); err == nil {
		t.Errorf("missing file accepted:\n%s", out)
	}
	if out, err := runTool(t, "minic", "-input", "1", "-text", "a", "testdata/fig1_faulty.mc"); err == nil {
		t.Errorf("conflicting inputs accepted:\n%s", out)
	}
}

func TestSlicer(t *testing.T) {
	out, err := runTool(t, "slicer",
		"-correct", "testdata/fig1_fixed.mc", "-input", "1", "testdata/fig1_faulty.mc")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{
		"wrong output #1: got 0, expected 8",
		"DS (classic dynamic slice): 5 statements",
		"RS (relevant slice): 8 statements",
		"PS (confidence-pruned slice):",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("slicer output missing %q:\n%s", want, out)
		}
	}
	// DS must not list the root cause; RS must.
	dsPart := out[strings.Index(out, "DS ("):strings.Index(out, "RS (")]
	if strings.Contains(dsPart, "saveOrigName = read() * 0") {
		t.Error("DS lists the root cause")
	}
	rsPart := out[strings.Index(out, "RS ("):strings.Index(out, "PS (")]
	if !strings.Contains(rsPart, "saveOrigName = read() * 0") {
		t.Error("RS misses the root cause")
	}
}

// TestDisasmGolden pins the -disasm bytecode listing (pc, opcode,
// operands, source-statement annotations) against the golden file, via
// both commands that expose the flag.
func TestDisasmGolden(t *testing.T) {
	golden, err := os.ReadFile("../testdata/fig1_faulty.disasm")
	if err != nil {
		t.Fatal(err)
	}
	out, err := runTool(t, "slicer", "-disasm", "testdata/fig1_faulty.mc")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if out != string(golden) {
		t.Errorf("slicer -disasm diverges from golden file:\n got:\n%s\nwant:\n%s", out, golden)
	}

	out, err = runTool(t, "eolshell", "-disasm", "testdata/fig1_faulty.mc")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if out != string(golden) {
		t.Errorf("eolshell -disasm diverges from golden file:\n got:\n%s\nwant:\n%s", out, golden)
	}
}

// TestSlicerEngineStats checks that -engine reports both the static
// SPDG shape (nodes, per-kind edges, cones) and the per-slice dynamic
// engine line.
func TestSlicerEngineStats(t *testing.T) {
	out, err := runTool(t, "slicer", "-correct", "testdata/fig1_fixed.mc",
		"-input", "1", "-engine", "-slices", "ds", "testdata/fig1_faulty.mc")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if want := "SPDG: 18 nodes, 20 edges (control 3, data 17, summary 0), 2 predicates (0 harmless cones)"; !strings.Contains(out, want) {
		t.Errorf("missing %q:\n%s", want, out)
	}
	if !strings.Contains(out, "engine: ") {
		t.Errorf("missing dynamic engine line:\n%s", out)
	}
}

func TestSlicerDOT(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "g.dot")
	out, err := runTool(t, "slicer",
		"-correct", "testdata/fig1_fixed.mc", "-input", "1",
		"-dot", dot, "-slices", "ds", "testdata/fig1_faulty.mc")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph ddg {") {
		t.Errorf("DOT file malformed:\n%s", data)
	}
}

// TestEoloc localizes the Figure 1 fault and writes the run journal,
// which the journalcheck tool must accept.
func TestEoloc(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "fig1.jsonl")
	out, err := runTool(t, "eoloc",
		"-correct", "testdata/fig1_fixed.mc", "-input", "1",
		"-root", "read() * 0", "-trace", journal, "testdata/fig1_faulty.mc")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{
		"ROOT CAUSE located: S5#1",
		"1 implicit edges (1 strong)",
		"final fault candidate set",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("eoloc output missing %q:\n%s", want, out)
		}
	}
	if out, code := runExit(t, "journalcheck", journal); code != 0 {
		t.Errorf("journalcheck exit code = %d, want 0\n%s", code, out)
	}
}

func TestEolocReport(t *testing.T) {
	rpt := filepath.Join(t.TempDir(), "report.md")
	out, err := runTool(t, "eoloc",
		"-correct", "testdata/fig1_fixed.mc", "-input", "1",
		"-root", "read() * 0", "-report", rpt, "testdata/fig1_faulty.mc")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	data, err := os.ReadFile(rpt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# Execution omission localization report") ||
		!strings.Contains(string(data), "ROOT CAUSE") {
		t.Errorf("report malformed:\n%s", data)
	}
}

func TestBenchtabCases(t *testing.T) {
	out, err := runTool(t, "benchtab", "-cases")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"flexsim/V1-F9", "grepsim/V4-F2", "gzipsim/V2-F3", "sedsim/V3-F2"} {
		if !strings.Contains(out, want) {
			t.Errorf("case list missing %s:\n%s", want, out)
		}
	}
}

func TestBenchtabTable1(t *testing.T) {
	out, err := runTool(t, "benchtab", "-table", "1")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "flexsim") {
		t.Errorf("table 1 output:\n%s", out)
	}
}

func TestCritpredCLI(t *testing.T) {
	out, err := runTool(t, "critpred",
		"-correct", "testdata/fig1_fixed.mc", "-input", "1", "testdata/fig1_faulty.mc")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "CRITICAL PREDICATE: S8#1") {
		t.Errorf("critpred output:\n%s", out)
	}
	out, err = runTool(t, "critpred",
		"-correct", "testdata/fig1_fixed.mc", "-input", "1",
		"-strategy", "lefs", "testdata/fig1_faulty.mc")
	if err != nil || !strings.Contains(out, "LEFS order") {
		t.Errorf("lefs run: %v\n%s", err, out)
	}
}

func TestEolshellSession(t *testing.T) {
	// The paper's protocol: declare the chain corrupted (n), prune the
	// benign rest (y), expand, list, quit.
	sh := exec.Command(bin(t, "eolshell"),
		"-correct", "testdata/fig1_fixed.mc", "-input", "1", "testdata/fig1_faulty.mc")
	sh.Dir = repoRoot
	sh.Stdin = strings.NewReader("n\nn\ny\ny\ny\ne\nl\nq\n")
	out, err := sh.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{
		"wrong output #1: got 0, expected 8",
		"VerifyDep(S8#1 -> S12#1) = STRONG_ID",
		"implicit edge(s) added",
		"var saveOrigName = read() * 0;", // the root cause enters the list
		"2 verifications performed",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("session transcript missing %q:\n%s", want, text)
		}
	}
}

func TestEolshellExpectedFlag(t *testing.T) {
	sh := exec.Command(bin(t, "eolshell"),
		"-expected", "8,8", "-input", "1", "testdata/fig1_faulty.mc")
	sh.Dir = repoRoot
	sh.Stdin = strings.NewReader("q\n")
	out, err := sh.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "wrong output #1") {
		t.Errorf("transcript:\n%s", out)
	}
}

func TestMinicCFGDot(t *testing.T) {
	out, err := runTool(t, "minic", "-cfgdot", "main", "testdata/fig1_faulty.mc")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"digraph cfg_main {", "shape=diamond", "ENTRY", "EXIT"} {
		if !strings.Contains(out, want) {
			t.Errorf("CFG DOT missing %q", want)
		}
	}
	if out, err := runTool(t, "minic", "-cfgdot", "nosuchfn", "testdata/fig1_faulty.mc"); err == nil {
		t.Errorf("unknown function accepted:\n%s", out)
	}
}

// TestExitCodes pins the exit-code contract across the tools: 0 for
// success, 1 for operational failures (missing files, compile errors,
// runtime faults, lint findings), 2 for command-line misuse.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		tool string
		args []string
		want int
	}{
		{"minic ok", "minic", []string{"-input", "1", "testdata/fig1_faulty.mc"}, 0},
		{"minic no args", "minic", nil, 2},
		{"minic conflicting inputs", "minic", []string{"-input", "1", "-text", "a", "testdata/fig1_faulty.mc"}, 2},
		{"minic bad -switch", "minic", []string{"-switch", "zz", "testdata/fig1_faulty.mc"}, 2},
		{"minic unknown -cfgdot func", "minic", []string{"-cfgdot", "nosuchfn", "testdata/fig1_faulty.mc"}, 2},
		{"minic missing file", "minic", []string{"nosuchfile.mc"}, 1},
		{"slicer missing -correct", "slicer", []string{"testdata/fig1_faulty.mc"}, 2},
		{"slicer bad slice kind", "slicer", []string{"-correct", "testdata/fig1_fixed.mc", "-input", "1", "-slices", "zz", "testdata/fig1_faulty.mc"}, 2},
		{"slicer missing file", "slicer", []string{"-correct", "testdata/fig1_fixed.mc", "nosuchfile.mc"}, 1},
		{"eoloc missing -correct", "eoloc", []string{"testdata/fig1_faulty.mc"}, 2},
		{"eoloc bad -root", "eoloc", []string{"-correct", "testdata/fig1_fixed.mc", "-input", "1", "-root", "nosuchfragment", "testdata/fig1_faulty.mc"}, 2},
		{"benchtab no mode", "benchtab", nil, 2},
		{"eolcorpus no args", "eolcorpus", nil, 2},
		{"eolcorpus missing manifest", "eolcorpus", []string{"nosuchmanifest.json"}, 1},
		{"eolcorpus smoke (deadline subject fails)", "eolcorpus", []string{"testdata/corpus/smoke.json"}, 1},
		{"eolvet ok", "eolvet", []string{"testdata/fig1_fixed.mc"}, 0},
		{"eolvet findings", "eolvet", []string{"testdata/lint/eol0003.mc"}, 1},
		{"eolvet missing file", "eolvet", []string{"nosuchfile.mc"}, 1},
		{"eolvet no args", "eolvet", nil, 2},
		{"eolvet unknown check", "eolvet", []string{"-checks", "nosuchcheck", "testdata/fig1_fixed.mc"}, 2},
		{"eolvet bad -min", "eolvet", []string{"-min", "loud", "testdata/fig1_fixed.mc"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := runExit(t, tc.tool, tc.args...)
			if code != tc.want {
				t.Errorf("exit code = %d, want %d\n%s", code, tc.want, out)
			}
		})
	}
}

// TestRemovedSpeculateFlag: speculative verification, the SPDG reach
// filter, the checkpoint count, the backend selector and the gob trace
// file are gone, and their -speculate, -no-static-reach, -checkpoints,
// -backend and -savetrace flags are now unknown flags (usage error,
// exit 2) on every command that used to accept them.
func TestRemovedSpeculateFlag(t *testing.T) {
	buildServeTools(t)
	removed := map[string][]string{
		"eoloc":     {"-speculate", "-no-static-reach", "-checkpoints=64", "-backend=tree"},
		"eolcorpus": {"-speculate", "-no-static-reach", "-checkpoints=64", "-backend=tree", "-private-cache"},
		"eolserve":  {"-speculate", "-no-static-reach", "-checkpoints=64", "-backend=tree"},
		"eolshell":  {"-backend=tree"},
		"slicer":    {"-backend=tree"},
		"benchtab":  {"-backend=tree"},
		"minic":     {"-savetrace=t.gob"},
	}
	for tool, flags := range removed {
		for _, flag := range flags {
			out, code := runExit(t, tool, flag)
			name, _, _ := strings.Cut(flag, "=")
			if code != 2 || !strings.Contains(out, "flag provided but not defined: "+name) {
				t.Errorf("%s %s: exit code = %d, want 2 naming the flag\n%s", tool, flag, code, out)
			}
		}
	}
}

// TestEolvetLintFixtures runs eolvet over each known-bad fixture in
// testdata/lint and compares against its golden output; each fixture
// must flag its own code (eol000N.mc -> EOL000N) and exit 1.
func TestEolvetLintFixtures(t *testing.T) {
	bin(t, "eolvet") // sets repoRoot
	fixtures, err := filepath.Glob(filepath.Join(repoRoot, "testdata", "lint", "*.mc"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no lint fixtures: %v", err)
	}
	for _, fix := range fixtures {
		rel, _ := filepath.Rel(repoRoot, fix)
		t.Run(filepath.Base(fix), func(t *testing.T) {
			out, code := runExit(t, "eolvet", rel)
			if code != 1 {
				t.Errorf("exit code = %d, want 1", code)
			}
			want := "EOL" + strings.TrimSuffix(strings.TrimPrefix(filepath.Base(fix), "eol"), ".mc")
			if !strings.Contains(out, want) {
				t.Errorf("output missing %s:\n%s", want, out)
			}
			golden, err := os.ReadFile(strings.TrimSuffix(fix, ".mc") + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			if out != string(golden) {
				t.Errorf("output differs from golden:\n got: %s\nwant: %s", out, golden)
			}
		})
	}
}

// TestEolvetCodes pins the machine-readable pass table and keeps
// docs/STATIC_CHECKS.md in lockstep with the registry: every row must
// have a matching "### CODE `name` (severity)" catalog heading, and
// every catalog heading must correspond to a registered pass.
func TestEolvetCodes(t *testing.T) {
	out, code := runExit(t, "eolvet", "-codes")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
	golden, err := os.ReadFile(filepath.Join(repoRoot, "testdata", "eolvet_codes.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Errorf("table differs from golden:\n got: %s\nwant: %s", out, golden)
	}
	docBytes, err := os.ReadFile(filepath.Join(repoRoot, "docs", "STATIC_CHECKS.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(docBytes)
	registered := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			t.Fatalf("malformed -codes row %q", line)
		}
		registered[f[0]] = true
		heading := "### " + f[0] + " `" + f[1] + "` (" + f[2] + ")"
		if !strings.Contains(doc, heading) {
			t.Errorf("docs/STATIC_CHECKS.md missing catalog heading %q", heading)
		}
	}
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "### EOL") {
			continue
		}
		code := strings.Fields(line)[1]
		if !registered[code] {
			t.Errorf("docs/STATIC_CHECKS.md documents %s but no such pass is registered", code)
		}
	}
}

// TestMinicVet checks the -vet convenience entry point.
func TestMinicVet(t *testing.T) {
	if out, code := runExit(t, "minic", "-vet", "testdata/fig1_faulty.mc"); code != 0 {
		t.Errorf("fig1_faulty: exit %d, want 0 (clean):\n%s", code, out)
	}
	out, code := runExit(t, "minic", "-vet", "testdata/lint/eol0007.mc")
	if code != 1 || !strings.Contains(out, "EOL0007") {
		t.Errorf("lint fixture: exit %d, output:\n%s", code, out)
	}
}

// TestEolcorpusSmoke drives eolcorpus over the smoke manifest: the two
// fig1 subjects locate, the slow subject hits its 5ms deadline, the
// default JSON output is byte-identical across shard counts, whether
// written to stdout or to -o, and the -trace journal passes
// journalcheck.
func TestEolcorpusSmoke(t *testing.T) {
	dir := t.TempDir()
	report1, report2 := filepath.Join(dir, "shards1.json"), filepath.Join(dir, "shards2.json")
	journal := filepath.Join(dir, "shards2.jsonl")
	_, code1 := runExit(t, "eolcorpus", "-shards", "1", "-o", report1, "testdata/corpus/smoke.json")
	_, code2 := runExit(t, "eolcorpus", "-shards", "2", "-o", report2, "-trace", journal, "testdata/corpus/smoke.json")
	out4, code4 := runExit(t, "eolcorpus", "-shards", "4", "testdata/corpus/smoke.json")
	if code1 != 1 || code2 != 1 || code4 != 1 {
		t.Fatalf("exit codes = %d/%d/%d, want 1 (deadline subject fails)\n%s", code1, code2, code4, out4)
	}
	out1, err := os.ReadFile(report1)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := os.ReadFile(report2)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the stderr tail line ("N of M subjects failed"); the JSON
	// body must be byte-identical between shard counts.
	if i := strings.Index(out4, "eolcorpus:"); i >= 0 {
		out4 = out4[:i]
	}
	if !bytes.Equal(out1, out2) || string(out1) != out4 {
		t.Errorf("default output differs between -shards 1, 2 and 4:\n--- 1:\n%s\n--- 2:\n%s\n--- 4:\n%s", out1, out2, out4)
	}
	for _, want := range []string{`"name": "fig1"`, `"located": true`, `"class": "deadline"`, `"failed": 1`} {
		if !bytes.Contains(out1, []byte(want)) {
			t.Errorf("output missing %s:\n%s", want, out1)
		}
	}
	if out, code := runExit(t, "journalcheck", journal); code != 0 {
		t.Errorf("journalcheck exit code = %d, want 0\n%s", code, out)
	}
}

// TestEolcorpusAB is the corpus-level A/B over the shard count: every
// configuration must write the same JSON report and the same run
// journal as the default, and every journal must validate. On
// staticreach.json the trace-replay filter must actually retire
// candidates.
func TestEolcorpusAB(t *testing.T) {
	configs := []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"shards2", []string{"-shards", "2"}},
	}
	fired := regexp.MustCompile(`"replay_skips": [1-9]`)
	dir := t.TempDir()
	for _, manifest := range []string{"checkpoint", "staticreach"} {
		var wantReport, wantJournal []byte
		for _, cfg := range configs {
			t.Run(manifest+"/"+cfg.name, func(t *testing.T) {
				reportPath := filepath.Join(dir, manifest+"-"+cfg.name+".json")
				journalPath := filepath.Join(dir, manifest+"-"+cfg.name+".jsonl")
				args := append([]string{"-o", reportPath, "-trace", journalPath}, cfg.args...)
				if out, code := runExit(t, "eolcorpus", append(args, "testdata/corpus/"+manifest+".json")...); code != 0 {
					t.Fatalf("exit code = %d, want 0\n%s", code, out)
				}
				report, err := os.ReadFile(reportPath)
				if err != nil {
					t.Fatal(err)
				}
				journal, err := os.ReadFile(journalPath)
				if err != nil {
					t.Fatal(err)
				}
				if err := obs.ValidateJournal(bytes.NewReader(journal)); err != nil {
					t.Errorf("journal does not validate: %v", err)
				}
				if cfg.name == "default" {
					wantReport, wantJournal = report, journal
					if manifest == "staticreach" && !fired.Match(report) {
						t.Errorf("replay filter never fired:\n%s", report)
					}
					return
				}
				if !bytes.Equal(journal, wantJournal) {
					t.Errorf("journal differs from the default configuration's")
				}
				if !bytes.Equal(report, wantReport) {
					t.Errorf("report differs from the default configuration's:\n got: %s\nwant: %s", report, wantReport)
				}
			})
		}
	}
}

// TestEolocDeadline exercises eoloc's -deadline flag: a generous bound
// changes nothing; a millisecond bound aborts with the deadline class.
func TestEolocDeadline(t *testing.T) {
	out, err := runTool(t, "eoloc", "-correct", "testdata/fig1_fixed.mc", "-input", "1",
		"-root", "read() * 0", "-deadline", "30s", "testdata/fig1_faulty.mc")
	if err != nil {
		t.Fatalf("eoloc -deadline 30s: %v\n%s", err, out)
	}
	if !strings.Contains(out, "ROOT CAUSE located") {
		t.Errorf("missing located line:\n%s", out)
	}

	out, code := runExit(t, "eoloc", "-correct", "testdata/corpus/slow_loop.mc", "-input", "3",
		"-deadline", "5ms", "testdata/corpus/slow_loop.mc")
	if code != 1 {
		t.Fatalf("eoloc -deadline 5ms: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "[deadline]") {
		t.Errorf("missing [deadline] class tag:\n%s", out)
	}
}
