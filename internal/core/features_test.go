package core

import (
	"reflect"
	"strings"
	"testing"
)

func TestFeatureModeRoundTrip(t *testing.T) {
	for _, m := range []FeatureMode{FeatureDefault, FeatureOn, FeatureOff} {
		got, err := ParseFeatureMode(m.String())
		if err != nil {
			t.Fatalf("ParseFeatureMode(%q): %v", m.String(), err)
		}
		if got != m {
			t.Errorf("round trip %v -> %q -> %v", m, m.String(), got)
		}
	}
	if m, err := ParseFeatureMode(""); err != nil || m != FeatureDefault {
		t.Errorf(`ParseFeatureMode("") = %v, %v; want default, nil`, m, err)
	}
	if _, err := ParseFeatureMode("yes"); err == nil {
		t.Error(`ParseFeatureMode("yes") accepted`)
	}
}

func TestParseFeaturesRoundTrip(t *testing.T) {
	f := Features{
		StaticSkip:         FeatureOff,
		Checkpoints:        FeatureOn,
		IncrementalReprune: FeatureOn,
	}
	m := f.Map()
	want := map[string]string{
		"static_skip":         "off",
		"checkpoints":         "on",
		"incremental_reprune": "on",
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("Map() = %v, want %v", m, want)
	}
	got, err := ParseFeatures(m)
	if err != nil {
		t.Fatal(err)
	}
	if got != f {
		t.Errorf("round trip: got %+v, want %+v", got, f)
	}
	// Zero features marshal to nothing: that is what keeps existing wire
	// requests byte-identical.
	if m := (Features{}).Map(); m != nil {
		t.Errorf("zero Features.Map() = %v, want nil", m)
	}
	if f, err := ParseFeatures(nil); err != nil || f != (Features{}) {
		t.Errorf("ParseFeatures(nil) = %+v, %v", f, err)
	}
}

func TestParseFeaturesRejectsUnknown(t *testing.T) {
	_, err := ParseFeatures(map[string]string{"warp_drive": "on"})
	if err == nil {
		t.Fatal("unknown feature name accepted")
	}
	if !strings.Contains(err.Error(), "warp_drive") {
		t.Errorf("error does not name the feature: %v", err)
	}
	_, err = ParseFeatures(map[string]string{"checkpoints": "sometimes"})
	if err == nil {
		t.Fatal("unknown feature mode accepted")
	}
	if !strings.Contains(err.Error(), "sometimes") {
		t.Errorf("error does not name the mode: %v", err)
	}
	// Error choice is deterministic regardless of map iteration order:
	// the smallest offending name wins.
	for i := 0; i < 10; i++ {
		_, err := ParseFeatures(map[string]string{"zzz": "on", "aaa": "on"})
		if err == nil || !strings.Contains(err.Error(), "aaa") {
			t.Fatalf("want error about %q, got %v", "aaa", err)
		}
	}
}

// TestParseFeaturesRemovedName: the removed feature "speculation" stays
// accepted on the wire with any valid mode and changes nothing; an
// invalid mode is still rejected.
func TestParseFeaturesRemovedName(t *testing.T) {
	for _, mode := range []string{"on", "off", "default", ""} {
		f, err := ParseFeatures(map[string]string{"speculation": mode})
		if err != nil || f != (Features{}) {
			t.Errorf("speculation=%q: %+v, %v; want zero Features, nil", mode, f, err)
		}
	}
	f, err := ParseFeatures(map[string]string{"speculation": "on", "static_skip": "off"})
	if err != nil || f != (Features{StaticSkip: FeatureOff}) {
		t.Errorf("speculation next to static_skip: %+v, %v", f, err)
	}
	if _, err := ParseFeatures(map[string]string{"speculation": "maybe"}); err == nil {
		t.Error("speculation with an invalid mode accepted")
	}
}

func TestFeaturesOverlay(t *testing.T) {
	base := Features{StaticSkip: FeatureOff, StaticReach: FeatureOn}
	over := Features{StaticSkip: FeatureOn, Checkpoints: FeatureOff}
	got := base.Overlay(over)
	want := Features{
		StaticSkip:  FeatureOn,  // over wins
		StaticReach: FeatureOn,  // over default: base survives
		Checkpoints: FeatureOff, // base default: over lands
	}
	if got != want {
		t.Errorf("Overlay = %+v, want %+v", got, want)
	}
}

// TestResolveFeaturesLegacyMapping pins the compatibility contract: at
// FeatureDefault the deprecated negative knobs decide, and an explicit
// tri-state overrides them.
func TestResolveFeaturesLegacyMapping(t *testing.T) {
	// Zero spec: everything on.
	var s Spec
	r := s.ResolveFeatures()
	want := ResolvedFeatures{StaticSkip: true, StaticReach: true, IncrementalReprune: true, Checkpoints: true}
	if r != want {
		t.Errorf("zero spec: %+v, want %+v", r, want)
	}

	// Legacy knobs flip the defaults.
	s = Spec{NoStaticSkip: true, NoStaticReach: true, NoIncremental: true, Checkpoints: -1}
	r = s.ResolveFeatures()
	if r.StaticSkip || r.StaticReach || r.IncrementalReprune || r.Checkpoints {
		t.Errorf("legacy knobs ignored: %+v", r)
	}

	// Explicit tri-states beat the legacy knobs.
	s.Features = Features{
		StaticSkip:         FeatureOn,
		StaticReach:        FeatureOn,
		IncrementalReprune: FeatureOn,
		Checkpoints:        FeatureOn,
	}
	r = s.ResolveFeatures()
	if !r.StaticSkip || !r.StaticReach || !r.IncrementalReprune || !r.Checkpoints {
		t.Errorf("explicit on overridden by legacy knobs: %+v", r)
	}
	// Forced on over a negative legacy count uses the default count.
	if r.CheckpointCount != 0 {
		t.Errorf("CheckpointCount = %d, want 0 (default)", r.CheckpointCount)
	}

	// Positive legacy count still selects the bound.
	s = Spec{Checkpoints: 7}
	if r := s.ResolveFeatures(); !r.Checkpoints || r.CheckpointCount != 7 {
		t.Errorf("Checkpoints=7: %+v", r)
	}

	// Explicit off beats a legacy-on default.
	s = Spec{Features: Features{StaticSkip: FeatureOff}}
	if r := s.ResolveFeatures(); r.StaticSkip {
		t.Error("FeatureOff did not disable StaticSkip")
	}
}
