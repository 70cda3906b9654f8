package core

import (
	"fmt"
	"sort"
)

// FeatureMode is a tri-state switch for one optional engine feature.
// FeatureDefault selects the built-in default, which is on for every
// feature, so a feature is on unless it is FeatureOff. FeatureOn exists
// for overlays: a subject's "on" overrides a manifest-wide "off"
// (Features.Overlay).
type FeatureMode uint8

const (
	FeatureDefault FeatureMode = iota
	FeatureOn
	FeatureOff
)

// String renders the wire spelling: "default", "on", "off".
func (m FeatureMode) String() string {
	switch m {
	case FeatureOn:
		return "on"
	case FeatureOff:
		return "off"
	}
	return "default"
}

// ParseFeatureMode parses the wire spelling. The empty string reads as
// FeatureDefault, so map-valued wire fields can omit a value.
func ParseFeatureMode(s string) (FeatureMode, error) {
	switch s {
	case "", "default":
		return FeatureDefault, nil
	case "on":
		return FeatureOn, nil
	case "off":
		return FeatureOff, nil
	}
	return FeatureDefault, fmt.Errorf("unknown feature mode %q (want on, off or default)", s)
}

// Features selects the locator's optional engine features. Each field
// is a tri-state, so a zero Features means "every feature at its
// default" and overlays compose key by key (Overlay).
//
// Every feature is results-neutral: Report counters, VerifyLog and the
// obs journal are byte-identical whatever the switches — only cost
// counters and wall-clock time change.
type Features struct {
	// StaticSkip is the trace-replay skip filter (check.SwitchFilter).
	// On by default.
	StaticSkip FeatureMode
	// IncrementalReprune is delta re-propagation in confidence analysis.
	// On by default.
	IncrementalReprune FeatureMode
	// Checkpoints is checkpointed switched replay: the failing run
	// captures up to interp.DefaultCheckpoints snapshots, and switched
	// runs fork from the nearest one. On by default.
	Checkpoints FeatureMode
}

// Overlay returns f with over's non-default fields taking precedence —
// the per-subject merge rule of corpus manifests.
func (f Features) Overlay(over Features) Features {
	pick := func(base, o FeatureMode) FeatureMode {
		if o != FeatureDefault {
			return o
		}
		return base
	}
	return Features{
		StaticSkip:         pick(f.StaticSkip, over.StaticSkip),
		IncrementalReprune: pick(f.IncrementalReprune, over.IncrementalReprune),
		Checkpoints:        pick(f.Checkpoints, over.Checkpoints),
	}
}

// Feature names as spelled on the wire (api requests, corpus manifests)
// and in -feature CLI flags.
const (
	FeatureStaticSkip         = "static_skip"
	FeatureIncrementalReprune = "incremental_reprune"
	FeatureCheckpoints        = "checkpoints"
)

// FeatureNames lists the wire-spelling feature names, sorted.
func FeatureNames() []string {
	return []string{
		FeatureCheckpoints,
		FeatureIncrementalReprune,
		FeatureStaticSkip,
	}
}

// ParseFeatures builds a Features from its wire spelling: a map from
// feature name to mode ("on", "off", "default" or empty). Unknown names
// and modes are rejected — the server surfaces them with the `invalid`
// error code. The removed features "speculation" and "static_reach" are
// still accepted with any valid mode and ignored, so schema_version 1
// requests that name them keep working.
func ParseFeatures(m map[string]string) (Features, error) {
	var f Features
	// Deterministic error selection: report the smallest offending name.
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mode, err := ParseFeatureMode(m[name])
		if err != nil {
			return Features{}, fmt.Errorf("feature %s: %w", name, err)
		}
		switch name {
		case FeatureStaticSkip:
			f.StaticSkip = mode
		case FeatureIncrementalReprune:
			f.IncrementalReprune = mode
		case FeatureCheckpoints:
			f.Checkpoints = mode
		case "speculation", "static_reach": // removed features: accepted, ignored
		default:
			return Features{}, fmt.Errorf("unknown feature %q (want one of %v)", name, FeatureNames())
		}
	}
	return f, nil
}

// Map renders f in its wire spelling, omitting FeatureDefault fields —
// so a zero Features marshals to nothing and existing requests stay
// byte-identical.
func (f Features) Map() map[string]string {
	m := map[string]string{}
	put := func(name string, mode FeatureMode) {
		if mode != FeatureDefault {
			m[name] = mode.String()
		}
	}
	put(FeatureStaticSkip, f.StaticSkip)
	put(FeatureIncrementalReprune, f.IncrementalReprune)
	put(FeatureCheckpoints, f.Checkpoints)
	if len(m) == 0 {
		return nil
	}
	return m
}

// ResolvedFeatures is a Spec's feature configuration after resolving the
// tri-states against the defaults, ready for LocateContext to act on.
type ResolvedFeatures struct {
	StaticSkip         bool
	IncrementalReprune bool
	Checkpoints        bool
}

// ResolveFeatures resolves spec's Features: a feature is on unless it
// is FeatureOff. This is the single source of truth for what
// LocateContext enables.
func (s *Spec) ResolveFeatures() ResolvedFeatures {
	on := func(mode FeatureMode) bool { return mode != FeatureOff }
	return ResolvedFeatures{
		StaticSkip:         on(s.Features.StaticSkip),
		IncrementalReprune: on(s.Features.IncrementalReprune),
		Checkpoints:        on(s.Features.Checkpoints),
	}
}
