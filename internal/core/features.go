package core

import (
	"fmt"
	"sort"
)

// FeatureMode is a tri-state switch for one optional engine feature.
// FeatureDefault defers to the legacy knob on Spec (NoStaticSkip,
// NoStaticReach, NoIncremental, the sign of Checkpoints); FeatureOn and
// FeatureOff force the feature regardless of the legacy knobs.
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

// Features selects the locator's optional engine features positively,
// replacing the accreted negative knobs on Spec (NoStaticSkip,
// NoStaticReach, NoIncremental, Checkpoints < 0). Each field is a
// tri-state: FeatureDefault defers to the corresponding legacy knob, so
// a zero Features changes nothing and old call sites keep working.
//
// Every feature is results-neutral: Report counters, VerifyLog and the
// obs journal are byte-identical whatever the switches — only cost
// counters and wall-clock time change (see the field docs on Spec).
type Features struct {
	// StaticSkip is the trace-replay skip filter (check.SwitchFilter);
	// legacy knob: NoStaticSkip. On by default.
	StaticSkip FeatureMode
	// StaticReach is the SPDG pre-execution reach filter
	// (check.StaticReachFilter); legacy knob: NoStaticReach. On by
	// default.
	StaticReach FeatureMode
	// IncrementalReprune is delta re-propagation in confidence analysis;
	// legacy knob: NoIncremental. On by default.
	IncrementalReprune FeatureMode
	// Checkpoints is checkpointed switched replay; legacy knob: the sign
	// of Spec.Checkpoints (negative = off). When forced On while the
	// legacy field is negative, the default checkpoint count is used;
	// otherwise Spec.Checkpoints keeps selecting the count. On by
	// default.
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
		StaticReach:        pick(f.StaticReach, over.StaticReach),
		IncrementalReprune: pick(f.IncrementalReprune, over.IncrementalReprune),
		Checkpoints:        pick(f.Checkpoints, over.Checkpoints),
	}
}

// Feature names as spelled on the wire (api requests, corpus manifests)
// and in -feature CLI flags.
const (
	FeatureStaticSkip         = "static_skip"
	FeatureStaticReach        = "static_reach"
	FeatureIncrementalReprune = "incremental_reprune"
	FeatureCheckpoints        = "checkpoints"
)

// FeatureNames lists the wire-spelling feature names, sorted.
func FeatureNames() []string {
	return []string{
		FeatureCheckpoints,
		FeatureIncrementalReprune,
		FeatureStaticReach,
		FeatureStaticSkip,
	}
}

// ParseFeatures builds a Features from its wire spelling: a map from
// feature name to mode ("on", "off", "default" or empty). Unknown names
// and modes are rejected — the server surfaces them with the `invalid`
// error code. The removed feature "speculation" is still accepted with
// any valid mode and ignored, so schema_version 1 requests that name it
// keep working.
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
		case FeatureStaticReach:
			f.StaticReach = mode
		case FeatureIncrementalReprune:
			f.IncrementalReprune = mode
		case FeatureCheckpoints:
			f.Checkpoints = mode
		case "speculation": // removed feature: accepted, ignored
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
	put(FeatureStaticReach, f.StaticReach)
	put(FeatureIncrementalReprune, f.IncrementalReprune)
	put(FeatureCheckpoints, f.Checkpoints)
	if len(m) == 0 {
		return nil
	}
	return m
}

// ResolvedFeatures is a Spec's feature configuration after resolving the
// tri-states against the legacy knobs: plain booleans plus the
// checkpoint count, ready for LocateContext to act on.
type ResolvedFeatures struct {
	StaticSkip         bool
	StaticReach        bool
	IncrementalReprune bool
	Checkpoints        bool
	// CheckpointCount is the capture bound when Checkpoints is true
	// (0 = interp.DefaultCheckpoints).
	CheckpointCount int
}

// ResolveFeatures resolves spec's Features against its legacy negative
// knobs. FeatureDefault defers to the legacy field; FeatureOn/FeatureOff
// override it. This is the single source of truth for what LocateContext
// enables — callers inspecting a Spec (harness, corpus, tests) should
// use it instead of reading the legacy fields.
func (s *Spec) ResolveFeatures() ResolvedFeatures {
	r := ResolvedFeatures{
		StaticSkip:         !s.NoStaticSkip,
		StaticReach:        !s.NoStaticReach,
		IncrementalReprune: !s.NoIncremental,
		Checkpoints:        s.Checkpoints >= 0,
	}
	if s.Checkpoints > 0 {
		r.CheckpointCount = s.Checkpoints
	}
	apply := func(mode FeatureMode, b *bool) {
		switch mode {
		case FeatureOn:
			*b = true
		case FeatureOff:
			*b = false
		}
	}
	apply(s.Features.StaticSkip, &r.StaticSkip)
	apply(s.Features.StaticReach, &r.StaticReach)
	apply(s.Features.IncrementalReprune, &r.IncrementalReprune)
	apply(s.Features.Checkpoints, &r.Checkpoints)
	return r
}
