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

// TestParseFeaturesRemovedName: the removed features "speculation" and
// "static_reach" stay accepted on the wire with any valid mode and
// change nothing; an invalid mode is still rejected.
func TestParseFeaturesRemovedName(t *testing.T) {
	for _, name := range []string{"speculation", "static_reach"} {
		for _, mode := range []string{"on", "off", "default", ""} {
			f, err := ParseFeatures(map[string]string{name: mode})
			if err != nil || f != (Features{}) {
				t.Errorf("%s=%q: %+v, %v; want zero Features, nil", name, mode, f, err)
			}
		}
		f, err := ParseFeatures(map[string]string{name: "on", "static_skip": "off"})
		if err != nil || f != (Features{StaticSkip: FeatureOff}) {
			t.Errorf("%s next to static_skip: %+v, %v", name, f, err)
		}
		if _, err := ParseFeatures(map[string]string{name: "maybe"}); err == nil {
			t.Errorf("%s with an invalid mode accepted", name)
		}
	}
}

func TestFeaturesOverlay(t *testing.T) {
	base := Features{StaticSkip: FeatureOff, IncrementalReprune: FeatureOn}
	over := Features{StaticSkip: FeatureOn, Checkpoints: FeatureOff}
	got := base.Overlay(over)
	want := Features{
		StaticSkip:         FeatureOn,  // over wins
		IncrementalReprune: FeatureOn,  // over default: base survives
		Checkpoints:        FeatureOff, // base default: over lands
	}
	if got != want {
		t.Errorf("Overlay = %+v, want %+v", got, want)
	}
}

// TestResolveFeaturesLegacyMapping pins the resolution contract: a zero
// Spec enables every feature and FeatureOff turns each one off.
func TestResolveFeaturesLegacyMapping(t *testing.T) {
	var s Spec
	want := ResolvedFeatures{StaticSkip: true, IncrementalReprune: true, Checkpoints: true}
	if r := s.ResolveFeatures(); r != want {
		t.Errorf("zero spec: %+v, want %+v", r, want)
	}

	// FeatureOff turns exactly the named feature off.
	for _, tc := range []struct {
		f    Features
		want ResolvedFeatures
	}{
		{Features{StaticSkip: FeatureOff}, ResolvedFeatures{IncrementalReprune: true, Checkpoints: true}},
		{Features{IncrementalReprune: FeatureOff}, ResolvedFeatures{StaticSkip: true, Checkpoints: true}},
		{Features{Checkpoints: FeatureOff}, ResolvedFeatures{StaticSkip: true, IncrementalReprune: true}},
	} {
		s := Spec{Features: tc.f}
		if r := s.ResolveFeatures(); r != tc.want {
			t.Errorf("%+v: %+v, want %+v", tc.f, r, tc.want)
		}
	}
}
