package check_test

import (
	"math/rand"
	"testing"

	"eol/internal/cfg"
	"eol/internal/check"
	"eol/internal/implicit"
	"eol/internal/interp"
	"eol/internal/testsupport"
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
		flt := check.NewSwitchFilter(c, nil, tr, o.Entry)

		checked := 0
		fired := false
		for p := 0; p < tr.Len() && checked < maxChecked; p++ {
			pe := tr.At(p)
			if pe.Branch != cfg.True && pe.Branch != cfg.False {
				continue
			}
			for u := p + 1; u < tr.Len() && checked < maxChecked; u++ {
				seen := map[int]bool{}
				for _, rec := range tr.At(u).Uses {
					if rec.Sym < 0 || seen[rec.Sym] {
						continue
					}
					seen[rec.Sym] = true
					if !flt.ProvablyNotID(p, u, rec.Sym) {
						continue
					}
					fires++
					checked++
					fired = true
					req := implicit.Request{Pred: p, Use: u, UseSym: rec.Sym, UseElem: rec.Elem}
					if res := ver.VerifyDetailed(req); res.Verdict != implicit.NotID {
						t.Fatalf("program %d: unsound fire pred=%v use=%v sym=%d: verdict %v\n%s",
							pi, pe.Inst, tr.At(u).Inst, rec.Sym, res.Verdict, src)
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
