package eol

// Facade coverage for the Features API, the only on/off spelling of the
// engine features.

import "testing"

// TestWithFeaturesOverlayOrder: later WithFeatures calls overlay earlier
// ones field by field, like corpus manifests over corpus defaults.
func TestWithFeaturesOverlayOrder(t *testing.T) {
	var st Settings
	for _, opt := range []LocateOption{
		WithFeatures(Features{StaticSkip: FeatureOff, IncrementalReprune: FeatureOff}),
		WithFeatures(Features{StaticSkip: FeatureOn}),
	} {
		opt(&st)
	}
	if st.Features.StaticSkip != FeatureOn {
		t.Errorf("StaticSkip = %v, want on (last call wins)", st.Features.StaticSkip)
	}
	if st.Features.IncrementalReprune != FeatureOff {
		t.Errorf("IncrementalReprune = %v, want off (earlier call survives default)", st.Features.IncrementalReprune)
	}
}
