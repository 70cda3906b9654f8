package check_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"eol/internal/backend"
	"eol/internal/bench"
	"eol/internal/cfg"
	"eol/internal/check"
	"eol/internal/implicit"
	"eol/internal/interp"
	"eol/internal/slicing"
	"eol/internal/testsupport"
	"eol/internal/trace"
)

// TestSwitchFilterSoundnessRandom cross-checks the static skip-filter
// against the ground truth on random programs: every (pred, use, sym)
// candidate the filter claims is provably NOT_ID must actually verify as
// NOT_ID when the switched run is performed. The bench suite pins the
// real workloads; this pass hammers the replay/taint machinery with
// program shapes nobody hand-wrote.
func TestSwitchFilterSoundnessRandom(t *testing.T) {
	programs := 80
	maxChecked := 60 // switched runs spent per program confirming fires
	if testing.Short() {
		programs = 15
	}
	rnd := rand.New(rand.NewSource(7))
	var fires, progsWithFires int
	for pi := 0; pi < programs; pi++ {
		src := testsupport.RandomProgram(rnd, testsupport.GenConfig{})
		c, err := interp.Compile(src)
		if err != nil {
			t.Fatalf("program %d does not compile: %v\n%s", pi, err, src)
		}
		run := interp.Run(c, interp.Options{BuildTrace: true})
		if run.Err != nil {
			t.Fatalf("program %d aborted: %v\n%s", pi, run.Err, src)
		}
		tr := run.Trace
		outs := run.OutputValues()
		if len(outs) == 0 {
			continue
		}
		// Synthesize a failure at the last output: pretend it should have
		// printed one more than it did.
		o := tr.OutputAt(len(outs) - 1)
		ver := &implicit.Verifier{
			C: c, Orig: tr,
			WrongOut: *o, Vexp: o.Value + 1, HasVexp: true,
		}
		flt := check.NewSwitchFilter(c, tr, o.Entry)

		checked := 0
		fired := false
		for p := 0; p < tr.Len() && checked < maxChecked; p++ {
			pe := tr.At(p)
			if pe.Branch != cfg.True && pe.Branch != cfg.False {
				continue
			}
			for u := p + 1; u < tr.Len() && checked < maxChecked; u++ {
				seen := map[int]bool{}
				for _, rec := range tr.Uses(u) {
					sym := int(rec.Sym)
					if sym < 0 || seen[sym] {
						continue
					}
					seen[sym] = true
					if !flt.ProvablyNotID(p, u, sym) {
						continue
					}
					fires++
					checked++
					fired = true
					req := implicit.Request{Pred: p, Use: u, UseSym: sym, UseElem: rec.Elem}
					if res := ver.VerifyDetailed(req); res.Verdict != implicit.NotID {
						t.Fatalf("program %d: unsound fire pred=%v use=%v sym=%d: verdict %v\n%s",
							pi, pe.Inst, tr.At(u).Inst, sym, res.Verdict, src)
					}
				}
			}
		}
		if fired {
			progsWithFires++
		}
	}
	if fires == 0 {
		t.Fatal("filter never fired on any random program: stress test is vacuous")
	}
	t.Logf("confirmed %d fires across %d/%d programs", fires, progsWithFires, programs)
}

// TestSwitchFilterCallCommit pins when the replay filter commits a call
// statement's assignment: at the end of the callee's span, after every
// callee entry, not right after the call entry. Each subject switches
// the one predicate and asks about the wrong output's use of c, which
// no branch writes. The filter's answer depends only on the commit
// point, and a real switched run must agree with it.
func TestSwitchFilterCallCommit(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		vexp int64
		// provable is the filter's verdict; want the switched run's.
		provable bool
		want     implicit.Verdict
	}{
		{
			// g = set() leaves g = 7 although set writes 5 first, so
			// the switched branch's g = 7 is a no-op and the skip is
			// provable. Committing before set's body replays g = 5 and
			// taints g, which reaches the wrong output.
			name: "prefix call commits after the callee's write",
			src: `var g;

func set() {
	g = 5;
	return 7;
}

func main() {
	var a = read();
	var c = 3;
	g = set();
	if (a > 10) {
		g = 7;
	}
	print(c + g);
}`,
			vexp: 11, provable: true, want: implicit.NotID,
		},
		{
			// The switched branch taints g, and copy reads g before
			// g = copy() overwrites it, so the taint reaches k and the
			// wrong output: the switched run prints the expected 7.
			// Committing before copy's body clears g's taint too early
			// and would skip a StrongID verification.
			name: "suffix call commits after the callee's read",
			src: `var g;
var k;

func copy() {
	k = g;
	return 1;
}

func main() {
	var a = read();
	var c = 3;
	if (a > 10) {
		g = 4;
	}
	g = copy();
	print(c + k);
}`,
			vexp: 7, provable: false, want: implicit.StrongID,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := interp.Compile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			input := []int64{1}
			run := interp.Run(c, interp.Options{Input: input, BuildTrace: true})
			if run.Err != nil {
				t.Fatal(run.Err)
			}
			tr := run.Trace
			o := tr.OutputAt(0)
			pred, sym := -1, -1
			for i := 0; i < tr.Len(); i++ {
				if b := tr.At(i).Branch; b == cfg.True || b == cfg.False {
					pred = i
				}
			}
			for _, rec := range tr.Uses(o.Entry) {
				if rec.Sym >= 0 && c.Info.Symbols[rec.Sym].Name == "c" {
					sym = int(rec.Sym)
				}
			}
			if pred < 0 || sym < 0 {
				t.Fatalf("predicate %d, symbol c %d not found in the trace", pred, sym)
			}

			flt := check.NewSwitchFilter(c, tr, o.Entry)
			if got := flt.ProvablyNotID(pred, o.Entry, sym); got != tc.provable {
				t.Errorf("ProvablyNotID = %v, want %v (%s)", got, tc.provable, flt.Reason(pred))
			}
			ver := &implicit.Verifier{
				C: c, Input: input, Orig: tr,
				WrongOut: *o, Vexp: tc.vexp, HasVexp: true,
			}
			res := ver.VerifyDetailed(implicit.Request{Pred: pred, Use: o.Entry, UseSym: sym})
			if res.Verdict != tc.want {
				t.Errorf("switched run verdict = %v, want %v", res.Verdict, tc.want)
			}
		})
	}
}

// filterQuery is one question to a SwitchFilter: Reason(pred) when use
// is -1, else ProvablyNotID(pred, use, sym).
type filterQuery struct{ pred, use, sym int }

func (q filterQuery) ask(f *check.SwitchFilter) string {
	if q.use < 0 {
		return f.Reason(q.pred)
	}
	return fmt.Sprint(f.ProvablyNotID(q.pred, q.use, q.sym))
}

// filterQueries lists, for every predicate instance of tr, its Reason and
// ProvablyNotID for every symbol every later entry uses.
func filterQueries(tr *trace.Trace) []filterQuery {
	var qs []filterQuery
	for p := 0; p < tr.Len(); p++ {
		if b := tr.At(p).Branch; b != cfg.True && b != cfg.False {
			continue
		}
		qs = append(qs, filterQuery{p, -1, -1})
		for u := p + 1; u < tr.Len(); u++ {
			for _, rec := range tr.Uses(u) {
				if rec.Sym >= 0 {
					qs = append(qs, filterQuery{p, u, int(rec.Sym)})
				}
			}
		}
	}
	return qs
}

// checkQueryOrder asks one shared filter every query in descending,
// ascending and shuffled predicate order, and compares each answer with
// a fresh filter's (one fresh filter per predicate instance: a filter
// answers all queries about one instance from one analysis of it). It
// returns the number of provable skips among the answers.
func checkQueryOrder(t *testing.T, name string, c *interp.Compiled, tr *trace.Trace, wrong int, rnd *rand.Rand) int {
	t.Helper()
	qs := filterQueries(tr)
	want := make([]string, len(qs))
	fires := 0
	var fresh *check.SwitchFilter
	for i, q := range qs {
		if q.use < 0 {
			fresh = check.NewSwitchFilter(c, tr, wrong)
		}
		want[i] = q.ask(fresh)
		if want[i] == "true" {
			fires++
		}
	}
	order := make([]int, len(qs))
	for i := range order {
		order[i] = i
	}
	descending := slices.Clone(order)
	sort.SliceStable(descending, func(a, b int) bool { return qs[descending[a]].pred > qs[descending[b]].pred })
	shuffled := slices.Clone(order)
	rnd.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	for _, o := range []struct {
		label string
		order []int
	}{{"descending", descending}, {"ascending", order}, {"shuffled", shuffled}} {
		shared := check.NewSwitchFilter(c, tr, wrong)
		for _, i := range o.order {
			if got := qs[i].ask(shared); got != want[i] {
				t.Fatalf("%s, %s order: query %+v answered %q, a fresh filter %q", name, o.label, qs[i], got, want[i])
			}
		}
	}
	return fires
}

// TestSwitchFilterQueryOrder pins that a filter's answers do not depend
// on the order it is asked in. The filter keeps one replay cursor over
// the failing trace and must restart it for a predicate behind it;
// without the restart, such a predicate would be analyzed from the
// machine state of a later point.
func TestSwitchFilterQueryOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(26))

	p, err := bench.ByName("sedsim/V3-F3").Prepare()
	if err != nil {
		t.Fatal(err)
	}
	seq, _, ok := slicing.FirstWrongOutput(p.Run.OutputValues(), p.Expected)
	if !ok {
		t.Fatal("sedsim/V3-F3: no wrong output")
	}
	if fires := checkQueryOrder(t, "sedsim/V3-F3", p.Faulty, p.Run.Trace, p.Run.Trace.OutputAt(seq).Entry, rnd); fires == 0 {
		t.Fatal("sedsim/V3-F3: the filter proves no skip, so the order check is vacuous")
	}

	programs := 40
	if testing.Short() {
		programs = 10
	}
	gen := rand.New(rand.NewSource(7)) // TestSwitchFilterSoundnessRandom's programs
	fires := 0
	for pi := 0; pi < programs; pi++ {
		src := testsupport.RandomProgram(gen, testsupport.GenConfig{})
		c, err := interp.Compile(src)
		if err != nil {
			t.Fatalf("program %d does not compile: %v\n%s", pi, err, src)
		}
		run := interp.Run(c, interp.Options{BuildTrace: true})
		if run.Err != nil {
			t.Fatalf("program %d aborted: %v\n%s", pi, run.Err, src)
		}
		outs := run.OutputValues()
		if len(outs) == 0 {
			continue
		}
		fires += checkQueryOrder(t, fmt.Sprintf("program %d", pi), c, run.Trace, run.Trace.OutputAt(len(outs)-1).Entry, rnd)
	}
	if fires == 0 {
		t.Fatal("the filter proves no skip on any random program: the order check is vacuous")
	}
}

// TestSwitchFilterReplaysPrefixOnce pins the cost of the replay cursor:
// asked about every predicate instance of a failing trace in ascending
// order, as the locator asks, a filter replays the trace once, so its
// cursor steps at most as many entries as the trace holds. Replaying
// the prefix afresh for each predicate gives the same answers at a cost
// quadratic in the trace, which neither answers nor allocation counts
// show.
func TestSwitchFilterReplaysPrefixOnce(t *testing.T) {
	grep, err := bench.ByName("grepsim/V4-F2").Prepare()
	if err != nil {
		t.Fatal(err)
	}
	sed, err := bench.ByName("sedsim/V3-F3").Prepare()
	if err != nil {
		t.Fatal(err)
	}
	// The 30-line grep subject of TestGrepLongLocateAllocCeiling.
	in := bench.ScaledGrepInput(30)
	grepRun := backend.Default().Run(grep.Faulty, interp.Options{Input: in, BuildTrace: true})
	grepCor := backend.Default().Run(grep.Correct, interp.Options{Input: in, BuildTrace: true})
	if grepRun.Err != nil || grepCor.Err != nil {
		t.Fatalf("grep runs: %v, %v", grepRun.Err, grepCor.Err)
	}
	for _, s := range []struct {
		name     string
		c        *interp.Compiled
		run      *interp.Result
		expected []int64
	}{
		{"grepsim/V4-F2 on 30 lines", grep.Faulty, grepRun, grepCor.OutputValues()},
		{"sedsim/V3-F3", sed.Faulty, sed.Run, sed.Expected},
	} {
		tr := s.run.Trace
		seq, _, ok := slicing.FirstWrongOutput(s.run.OutputValues(), s.expected)
		if !ok {
			t.Fatalf("%s: no wrong output", s.name)
		}
		flt := check.NewSwitchFilter(s.c, tr, tr.OutputAt(seq).Entry)
		for i := 0; i < tr.Len(); i++ {
			if b := tr.At(i).Branch; b == cfg.True || b == cfg.False {
				flt.Reason(i)
			}
		}
		steps := check.CursorSteps(flt)
		t.Logf("%s: %d entries, cursor stepped %d", s.name, tr.Len(), steps)
		if steps == 0 {
			t.Errorf("%s: the cursor never stepped, so the check is vacuous", s.name)
		}
		if steps > tr.Len() {
			t.Errorf("%s: the cursor stepped %d entries over a %d-entry trace; ascending queries must replay it once",
				s.name, steps, tr.Len())
		}
	}
}

// TestSwitchFilterReturnFromLiveFrame pins the filter's bail on a
// switched region that returns from a frame already live at the
// predicate, here the frame the predicate itself opens: the if is the
// first entry of f's activation, so a frame counts as live at the
// predicate's own index.
func TestSwitchFilterReturnFromLiveFrame(t *testing.T) {
	c, err := interp.Compile(`var g;

func f(a) {
	if (a > 0) {
		g = 1;
		return 2;
	}
}

func main() {
	var a = read();
	var r = f(a);
	print(r + g);
}`)
	if err != nil {
		t.Fatal(err)
	}
	run := interp.Run(c, interp.Options{Input: []int64{1}, BuildTrace: true})
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	tr := run.Trace
	pred := -1
	for i := 0; i < tr.Len(); i++ {
		if b := tr.At(i).Branch; b == cfg.True || b == cfg.False {
			pred = i
		}
	}
	if pred < 0 || pred == 0 || tr.At(pred).Frame == tr.At(pred-1).Frame {
		t.Fatalf("want the predicate to open its frame; predicate at %d", pred)
	}
	flt := check.NewSwitchFilter(c, tr, tr.OutputAt(0).Entry)
	if got, want := flt.Reason(pred), "region returns from a live frame"; got != want {
		t.Errorf("Reason = %q, want %q", got, want)
	}
}
