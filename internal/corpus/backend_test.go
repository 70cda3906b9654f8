package corpus_test

// The tree-walker is the reference oracle, reachable only through
// Options.Backend: the manifest "backend" key is validated and ignored,
// and a tree-walker run writes the same report and journal bytes as the
// VM.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"eol/internal/api"
	"eol/internal/corpus"
	"eol/internal/obs"
)

// runEncoded runs m under opts and returns the result with its
// api-encoded report (the eolcorpus -o bytes) and its journal (the
// eolcorpus -trace bytes).
func runEncoded(t *testing.T, m *corpus.Manifest, opts corpus.Options) (*corpus.Result, []byte, []byte) {
	t.Helper()
	var journal bytes.Buffer
	j := obs.NewJournal(&journal)
	opts.Observer = j
	res, err := corpus.Run(context.Background(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if err := api.Encode(&report, api.NewCorpusReport(res, false, opts.Shards)); err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d subjects failed:\n%s", res.Failed, report.Bytes())
	}
	return res, report.Bytes(), journal.Bytes()
}

// TestManifestBackendIgnored: a subject or manifest default naming the
// tree-walker still runs on the VM — it captures checkpoints, which the
// tree-walker never does — and encodes the same row as without the key.
// An unknown name still fails Validate.
func TestManifestBackendIgnored(t *testing.T) {
	plain, err := corpus.Load("../../testdata/corpus/checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	res, wantReport, wantJournal := runEncoded(t, plain, corpus.Options{})
	if res.Subjects[0].Report.Stats.Checkpoints == 0 {
		t.Fatal("the VM captured no checkpoints on checkpoint.json")
	}

	subjectKey := *plain
	subjectKey.Subjects = append([]corpus.Subject(nil), plain.Subjects...)
	subjectKey.Subjects[0].Backend = "tree"
	defaultKey := *plain
	defaultKey.Subjects = append([]corpus.Subject(nil), plain.Subjects...)
	defaultKey.Defaults.Backend = "tree"
	defaultKey.Fold()
	for name, m := range map[string]*corpus.Manifest{"subject": &subjectKey, "defaults": &defaultKey} {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s key: %v", name, err)
		}
		res, report, journal := runEncoded(t, m, corpus.Options{})
		if got := res.Subjects[0].Report.Stats.Checkpoints; got == 0 {
			t.Errorf("%s key: no checkpoints captured, so the tree-walker ran", name)
		}
		if !bytes.Equal(report, wantReport) {
			t.Errorf("%s key: report differs:\n got: %s\nwant: %s", name, report, wantReport)
		}
		if !bytes.Equal(journal, wantJournal) {
			t.Errorf("%s key: journal differs", name)
		}
	}

	bad := *plain
	bad.Subjects = append([]corpus.Subject(nil), plain.Subjects...)
	bad.Subjects[0].Backend = "quantum"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Errorf("Validate(backend quantum) = %v, want an error naming it", err)
	}
}

// TestTreeBackendAB runs each A/B manifest on the VM and on the
// tree-walker oracle: the api-encoded report and the journal must be
// byte-identical, and the tree side must capture no checkpoints (it has
// no checkpointed replay), which shows the oracle really ran.
func TestTreeBackendAB(t *testing.T) {
	for _, name := range []string{"checkpoint", "staticreach"} {
		t.Run(name, func(t *testing.T) {
			m, err := corpus.Load("../../testdata/corpus/" + name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			_, wantReport, wantJournal := runEncoded(t, m, corpus.Options{})
			res, report, journal := runEncoded(t, m, corpus.Options{Backend: "tree"})
			for _, sr := range res.Subjects {
				if got := sr.Report.Stats.Checkpoints; got != 0 {
					t.Errorf("%s: tree-walker captured %d checkpoints", sr.Name, got)
				}
			}
			if !bytes.Equal(report, wantReport) {
				t.Errorf("report differs from the VM's:\n got: %s\nwant: %s", report, wantReport)
			}
			if !bytes.Equal(journal, wantJournal) {
				t.Errorf("journal differs from the VM's")
			}
			if err := obs.ValidateJournal(bytes.NewReader(journal)); err != nil {
				t.Errorf("journal does not validate: %v", err)
			}
		})
	}
}
