package eol

// Facade coverage for the Features API: the positive tri-state spelling
// and its equivalence with the deprecated Without* wrappers.

import "testing"

// locateFig1 runs one localization with extra options and returns the
// diagnosis.
func locateFig1(t *testing.T, opts ...LocateOption) *Diagnosis {
	t.Helper()
	s, faulty, fixed := fig1Session(t)
	root, ok := faulty.FindStatement("read() * 0")
	if !ok {
		t.Fatal("root statement not found")
	}
	all := append([]LocateOption{WithRootCause(root), WithCorrectVersion(fixed)}, opts...)
	diag, err := s.Locate(all...)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Located {
		t.Fatalf("not located:\n%s", diag.Explain())
	}
	return diag
}

// TestWithFeaturesEquivalentToDeprecatedWrappers: each deprecated
// Without* wrapper and its WithFeatures spelling configure the same
// localization — verdict and Table 3 counters identical.
func TestWithFeaturesEquivalentToDeprecatedWrappers(t *testing.T) {
	for _, tc := range []struct {
		name       string
		deprecated LocateOption
		features   Features
	}{
		{"static_skip", WithoutStaticSkip(), Features{StaticSkip: FeatureOff}},
		{"static_reach", WithoutStaticReach(), Features{StaticReach: FeatureOff}},
		{"incremental_reprune", WithoutIncrementalReprune(), Features{IncrementalReprune: FeatureOff}},
		{"checkpoints", WithoutCheckpoints(), Features{Checkpoints: FeatureOff}},
	} {
		old := locateFig1(t, tc.deprecated)
		new := locateFig1(t, WithFeatures(tc.features))
		if old.Root != new.Root ||
			old.Stats.Verifications != new.Stats.Verifications ||
			old.Stats.UserPrunings != new.Stats.UserPrunings ||
			old.Stats.Iterations != new.Stats.Iterations {
			t.Errorf("%s: wrapper and WithFeatures diverge:\n old: %+v\n new: %+v",
				tc.name, old.Stats, new.Stats)
		}
	}
}

// TestWithFeaturesOverlayOrder: later WithFeatures calls overlay earlier
// ones field by field, like corpus manifests over corpus defaults.
func TestWithFeaturesOverlayOrder(t *testing.T) {
	var st Settings
	for _, opt := range []LocateOption{
		WithFeatures(Features{StaticSkip: FeatureOff, StaticReach: FeatureOff}),
		WithFeatures(Features{StaticSkip: FeatureOn}),
	} {
		opt(&st)
	}
	if st.Features.StaticSkip != FeatureOn {
		t.Errorf("StaticSkip = %v, want on (last call wins)", st.Features.StaticSkip)
	}
	if st.Features.StaticReach != FeatureOff {
		t.Errorf("StaticReach = %v, want off (earlier call survives default)", st.Features.StaticReach)
	}
}
