package corpus_test

// The manifest "features" key: schema_version 1 still accepts it on
// subjects and defaults, Fold copies defaults into subjects key by key,
// and Validate rejects unknown names and modes. After validation the
// key is ignored: every engine feature is always on.

import (
	"bytes"
	"testing"

	"eol/internal/corpus"
)

// TestManifestFeaturesFold: a key the subject leaves unset inherits the
// manifest default; subject keys — including an explicit "default" —
// win.
func TestManifestFeaturesFold(t *testing.T) {
	m := &corpus.Manifest{
		Defaults: corpus.Defaults{Features: map[string]string{
			"checkpoints": "on",
			"static_skip": "off",
		}},
		Subjects: []corpus.Subject{
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

// featuresOnSubject and featuresInDefaults put one features map on a
// one-subject manifest, on the subject or folded in from the defaults.
func featuresOnSubject(features map[string]string) *corpus.Manifest {
	return &corpus.Manifest{Subjects: []corpus.Subject{
		{Name: "x", Source: "s", Expected: []int64{1}, Features: features},
	}}
}

func featuresInDefaults(features map[string]string) *corpus.Manifest {
	m := &corpus.Manifest{
		Defaults: corpus.Defaults{Features: features},
		Subjects: []corpus.Subject{{Name: "x", Source: "s", Expected: []int64{1}}},
	}
	m.Fold()
	return m
}

// wantFeaturesError checks that features fails Validate with want, on
// the subject and in the defaults. It repeats each check because the
// error choice must not depend on map order.
func wantFeaturesError(t *testing.T, features map[string]string, want string) {
	t.Helper()
	want = "subject 0 (x): " + want
	for i := 0; i < 5; i++ {
		if err := featuresOnSubject(features).Validate(); err == nil || err.Error() != want {
			t.Fatalf("subject %v: err = %v, want %s", features, err, want)
		}
		if err := featuresInDefaults(features).Validate(); err == nil || err.Error() != want {
			t.Fatalf("defaults %v: err = %v, want %s", features, err, want)
		}
	}
}

// TestManifestFeaturesValidate: every current feature name is accepted
// with every mode, on a subject or in the defaults, and an unknown name
// or mode is rejected.
func TestManifestFeaturesValidate(t *testing.T) {
	for _, name := range []string{"checkpoints", "incremental_reprune", "static_skip"} {
		for _, mode := range []string{"on", "off", "default", ""} {
			features := map[string]string{name: mode, "static_skip": "off"}
			if err := featuresOnSubject(features).Validate(); err != nil {
				t.Errorf("subject %v rejected: %v", features, err)
			}
			if err := featuresInDefaults(features).Validate(); err != nil {
				t.Errorf("defaults %v rejected: %v", features, err)
			}
		}
	}
	for _, features := range []map[string]string{{"warp_drive": "on"}, {"speculation": "maybe"}} {
		if err := featuresOnSubject(features).Validate(); err == nil {
			t.Errorf("subject %v accepted", features)
		}
	}
}

// TestManifestFeaturesRejectsUnknown: an unknown name or mode fails
// Validate with an error naming it, and when several names offend the
// smallest one is named — the server surfaces it as the `invalid` code.
func TestManifestFeaturesRejectsUnknown(t *testing.T) {
	const names = "[checkpoints incremental_reprune static_skip]"
	wantFeaturesError(t, map[string]string{"warp_drive": "on"},
		`unknown feature "warp_drive" (want one of `+names+`)`)
	wantFeaturesError(t, map[string]string{"checkpoints": "sometimes"},
		`feature checkpoints: unknown feature mode "sometimes" (want on, off or default)`)
	wantFeaturesError(t, map[string]string{"zzz": "on", "aaa": "on"},
		`unknown feature "aaa" (want one of `+names+`)`)
	wantFeaturesError(t, map[string]string{"static_skip": "off", "aaa": "maybe"},
		`feature aaa: unknown feature mode "maybe" (want on, off or default)`)
}

// TestManifestFeaturesRemovedName: the removed features "speculation"
// and "static_reach" stay accepted with any valid mode, alone or next
// to a current name; an invalid mode is still rejected.
func TestManifestFeaturesRemovedName(t *testing.T) {
	for _, name := range []string{"speculation", "static_reach"} {
		for _, mode := range []string{"on", "off", "default", ""} {
			for _, features := range []map[string]string{
				{name: mode},
				{name: mode, "static_skip": "off"},
			} {
				if err := featuresOnSubject(features).Validate(); err != nil {
					t.Errorf("subject %v rejected: %v", features, err)
				}
				if err := featuresInDefaults(features).Validate(); err != nil {
					t.Errorf("defaults %v rejected: %v", features, err)
				}
			}
		}
		wantFeaturesError(t, map[string]string{name: "maybe"},
			`feature `+name+`: unknown feature mode "maybe" (want on, off or default)`)
	}
}

// TestManifestFeaturesIgnored: turning every feature off, on each
// subject or in the defaults, changes nothing. The run still captures
// checkpoints and still retires candidates with the replay filter, and
// it encodes the report and journal bytes of the manifest without the
// key.
func TestManifestFeaturesIgnored(t *testing.T) {
	off := map[string]string{"checkpoints": "off", "incremental_reprune": "off", "static_skip": "off"}
	for _, name := range []string{"checkpoint", "staticreach"} {
		plain, err := corpus.Load("../../testdata/corpus/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		want, wantReport, wantJournal := runEncoded(t, plain, corpus.Options{})
		// Each manifest exercises a feature the key would turn off.
		if st := want.Subjects[0].Report.Stats; st.Checkpoints == 0 || (name == "staticreach" && st.StaticSkips == 0) {
			t.Fatalf("%s.json: %d checkpoints, %d replay skips without the key", name, st.Checkpoints, st.StaticSkips)
		}

		subjectKey := *plain
		subjectKey.Subjects = append([]corpus.Subject(nil), plain.Subjects...)
		for i := range subjectKey.Subjects {
			subjectKey.Subjects[i].Features = off
		}
		defaultKey := *plain
		defaultKey.Subjects = append([]corpus.Subject(nil), plain.Subjects...)
		defaultKey.Defaults.Features = off
		defaultKey.Fold()
		for key, m := range map[string]*corpus.Manifest{"subject": &subjectKey, "defaults": &defaultKey} {
			if err := m.Validate(); err != nil {
				t.Fatalf("%s/%s key: %v", name, key, err)
			}
			res, report, journal := runEncoded(t, m, corpus.Options{})
			for i, sr := range res.Subjects {
				got, plainStats := sr.Report.Stats, want.Subjects[i].Report.Stats
				if got.Checkpoints != plainStats.Checkpoints || got.StaticSkips != plainStats.StaticSkips {
					t.Errorf("%s/%s key: %s captured %d checkpoints and skipped %d replays, want %d and %d",
						name, key, sr.Name, got.Checkpoints, got.StaticSkips, plainStats.Checkpoints, plainStats.StaticSkips)
				}
			}
			if !bytes.Equal(report, wantReport) {
				t.Errorf("%s/%s key: report differs:\n got: %s\nwant: %s", name, key, report, wantReport)
			}
			if !bytes.Equal(journal, wantJournal) {
				t.Errorf("%s/%s key: journal differs", name, key)
			}
		}
	}
}
