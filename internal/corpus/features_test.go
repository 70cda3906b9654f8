package corpus

// Manifest and Options coverage for the Features wire spelling: per-key
// fold order, Validate rejection of unknown names, and the subject over
// Options merge.

import (
	"context"
	"strings"
	"testing"

	"eol/internal/bench"
	"eol/internal/core"
)

// TestManifestFeaturesFold: a key the subject leaves unset inherits the
// manifest default; subject keys — including an explicit "default" —
// win.
func TestManifestFeaturesFold(t *testing.T) {
	m := &Manifest{
		Defaults: Defaults{Features: map[string]string{
			"checkpoints": "on",
			"static_skip": "off",
		}},
		Subjects: []Subject{
			{Name: "inherits", Source: "s", Expected: []int64{1}},
			{Name: "overrides", Source: "s", Expected: []int64{1},
				Features: map[string]string{"checkpoints": "off"}},
			{Name: "explicit-default", Source: "s", Expected: []int64{1},
				Features: map[string]string{"static_skip": "default"}},
		},
	}
	m.Fold()

	if got := m.Subjects[0].Features; got["checkpoints"] != "on" || got["static_skip"] != "off" {
		t.Errorf("inherits: %v", got)
	}
	if got := m.Subjects[1].Features; got["checkpoints"] != "off" || got["static_skip"] != "off" {
		t.Errorf("overrides: %v", got)
	}
	if got := m.Subjects[2].Features; got["static_skip"] != "default" || got["checkpoints"] != "on" {
		t.Errorf("explicit-default: %v", got)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("folded manifest invalid: %v", err)
	}
}

// TestManifestFeaturesValidate: unknown feature names and modes fail
// Validate with an error naming the offender — the server surfaces this
// as the `invalid` code.
func TestManifestFeaturesValidate(t *testing.T) {
	mk := func(features map[string]string) *Manifest {
		return &Manifest{Subjects: []Subject{
			{Name: "x", Source: "s", Expected: []int64{1}, Features: features},
		}}
	}
	if err := mk(map[string]string{"checkpoints": "on"}).Validate(); err != nil {
		t.Errorf("valid feature rejected: %v", err)
	}
	err := mk(map[string]string{"warp_drive": "on"}).Validate()
	if err == nil || !strings.Contains(err.Error(), "warp_drive") {
		t.Errorf("unknown feature name: err = %v", err)
	}
	err = mk(map[string]string{"speculation": "maybe"}).Validate()
	if err == nil || !strings.Contains(err.Error(), "maybe") {
		t.Errorf("unknown feature mode: err = %v", err)
	}
}

// TestSubjectFeaturesOverrideOptions: a subject's manifest features
// overlay the corpus-wide Options.Features key by key.
func TestSubjectFeaturesOverrideOptions(t *testing.T) {
	c := bench.ByName("grepsim/V4-F2")
	if c == nil {
		t.Fatal("unknown case grepsim/V4-F2")
	}
	faulty, err := c.FaultySrc()
	if err != nil {
		t.Fatal(err)
	}
	m := &Manifest{Subjects: []Subject{
		{
			Name: "checkpoints-on", Source: faulty, CorrectSource: c.CorrectSrc,
			Input: c.FailingInput, RootFrag: c.RootFrag,
			Features: map[string]string{"checkpoints": "on"},
		},
		{
			Name: "checkpoints-inherit", Source: faulty, CorrectSource: c.CorrectSrc,
			Input: c.FailingInput, RootFrag: c.RootFrag,
		},
	}}
	res, err := Run(context.Background(), m, Options{
		Shards:   1,
		Features: core.Features{Checkpoints: core.FeatureOff},
	})
	if err != nil {
		t.Fatal(err)
	}
	on, off := res.Subjects[0].Report, res.Subjects[1].Report
	if off == nil || on == nil {
		t.Fatal("missing reports")
	}
	if on.Stats.Checkpoints == 0 {
		t.Error("subject-level on ignored: no checkpoints captured")
	}
	if off.Stats.Checkpoints != 0 {
		t.Errorf("corpus-level off not inherited: %d checkpoints captured", off.Stats.Checkpoints)
	}
}
