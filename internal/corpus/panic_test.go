package corpus_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"eol/internal/api"
	"eol/internal/core"
	"eol/internal/corpus"
	"eol/internal/obs"
)

// TestSubjectPanicIsolated: a localization that panics fails its own
// subject with class "error" and an "internal: panic:" message. The
// corpus run survives, every other row encodes to the same bytes as a
// run without that subject, and the journal still validates.
func TestSubjectPanicIsolated(t *testing.T) {
	reach, err := corpus.Load("../../testdata/corpus/staticreach.json")
	if err != nil {
		t.Fatal(err)
	}
	smoke, err := corpus.Load("../../testdata/corpus/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	victim := smoke.Subjects[0]
	m := &corpus.Manifest{Subjects: []corpus.Subject{reach.Subjects[0], victim, reach.Subjects[1]}}
	clean, err := corpus.Run(context.Background(), reach, corpus.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeRows(t, clean)

	corpus.SetLocate(t, func(ctx context.Context, spec *core.Spec) (*core.Report, error) {
		if spec.Program.Src == victim.Source {
			panic("injected localization fault")
		}
		return core.LocateContext(ctx, spec)
	})
	var journal bytes.Buffer
	j := obs.NewJournal(&journal)
	res, err := corpus.Run(context.Background(), m, corpus.Options{Shards: 2, Observer: j})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateJournal(bytes.NewReader(journal.Bytes())); err != nil {
		t.Errorf("journal of a run with a panicking subject: %v", err)
	}
	sr := res.Subjects[1]
	if sr.Class != "error" || sr.Err == nil || !strings.HasPrefix(sr.Err.Error(), "internal: panic: injected localization fault") {
		t.Errorf("panicking subject: class %q, error %v; want class error, an internal: panic: message", sr.Class, sr.Err)
	}
	if res.Failed != 1 {
		t.Errorf("%d subjects failed, want only the panicking one", res.Failed)
	}
	res.Subjects = append(res.Subjects[:1], res.Subjects[2:]...)
	if got := encodeRows(t, res); !bytes.Equal(got, want) {
		t.Errorf("the other rows changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// encodeRows encodes the wire rows of res.
func encodeRows(t *testing.T, res *corpus.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := range res.Subjects {
		if err := api.Encode(&buf, api.NewSubjectResult(&res.Subjects[i], false)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}
