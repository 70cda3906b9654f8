package eol

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"eol/internal/corpus"
	"eol/internal/serve"
	"eol/internal/testsupport"
)

// TestLocateContextPartialDiagnosis cancels a localization up front and
// checks the facade contract: a non-nil partial Diagnosis plus an error
// matching both the eol taxonomy and the context sentinels.
func TestLocateContextPartialDiagnosis(t *testing.T) {
	s, _, fixed := fig1Session(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	diag, err := s.LocateContext(ctx, WithCorrectVersion(fixed))
	if err == nil {
		t.Fatal("canceled LocateContext succeeded")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not match ErrCanceled/context.Canceled", err)
	}
	if diag == nil {
		t.Fatal("nil Diagnosis, want partial")
	}
	if diag.Located || len(diag.Candidates) != 0 {
		t.Errorf("aborted diagnosis claims results: located=%v candidates=%d",
			diag.Located, len(diag.Candidates))
	}
}

// TestRunContextDeadline bounds a long-running program by a few
// milliseconds through the facade.
func TestRunContextDeadline(t *testing.T) {
	p := MustCompile(`
func main() {
    var x = read();
    var i = 0;
    while (i < 100000000) {
        i = i + 1;
    }
    print(x);
}
`)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := p.RunContext(ctx, []int64{1}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("RunContext error %v does not match ErrDeadline", err)
	}
	if _, err := p.RunPlainContext(ctx, []int64{1}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("RunPlainContext error %v does not match ErrDeadline", err)
	}
}

// TestBackgroundWrappersUnchanged pins the migration promise: the
// context-free entry points still work exactly as before.
func TestBackgroundWrappersUnchanged(t *testing.T) {
	s, _, fixed := fig1Session(t)
	diag, err := s.Locate(WithCorrectVersion(fixed))
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.Candidates) == 0 {
		t.Error("no candidates from the background-context path")
	}
}

// TestFacadeHasNoBackendSelector: the facade's corpus and server
// options carry every field of their internal counterparts except
// Backend, so a library caller cannot select the tree-walker oracle.
func TestFacadeHasNoBackendSelector(t *testing.T) {
	for _, types := range [][2]reflect.Type{
		{reflect.TypeOf(CorpusOptions{}), reflect.TypeOf(corpus.Options{})},
		{reflect.TypeOf(ServeConfig{}), reflect.TypeOf(serve.Config{})},
	} {
		facade, internal := types[0], types[1]
		if _, ok := facade.FieldByName("Backend"); ok {
			t.Errorf("%v has a Backend field", facade)
		}
		for i := 0; i < internal.NumField(); i++ {
			if name := internal.Field(i).Name; name != "Backend" {
				if _, ok := facade.FieldByName(name); !ok {
					t.Errorf("%v lacks %v.%s", facade, internal, name)
				}
			}
		}
	}
	sh := NewCorpusShared(-1)
	var j Observer = NewJournal(io.Discard)
	got := CorpusOptions{Shards: 3, Deadline: time.Second, FailFast: true, VerifyWorkers: 2, CacheSize: -1, Shared: sh, Observer: j}.corpus()
	want := corpus.Options{Shards: 3, Deadline: time.Second, FailFast: true, VerifyWorkers: 2, CacheSize: -1, Shared: sh, Observer: j}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CorpusOptions converts to %+v, want %+v", got, want)
	}
}

// TestNewServerAppliesConfig: NewServer hands the facade config to the
// server. With a one-token bucket on a stopped clock, the second request
// is rate-limited.
func TestNewServerAppliesConfig(t *testing.T) {
	s := NewServer(ServeConfig{Rate: 1, Burst: 1, Now: func() time.Time { return time.Unix(0, 0) }})
	defer s.Close()
	var codes []int
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/locate", strings.NewReader("{}")))
		codes = append(codes, rec.Code)
	}
	if codes[0] == http.StatusTooManyRequests || codes[1] != http.StatusTooManyRequests {
		t.Errorf("status codes %v, want the second request rate-limited", codes)
	}
}

// TestLocateCorpusFacade drives the corpus service through the public
// API with an in-memory manifest.
func TestLocateCorpusFacade(t *testing.T) {
	m := &CorpusManifest{Subjects: []CorpusSubject{
		{
			Name:          "fig1",
			Source:        testsupport.Fig1Faulty,
			CorrectSource: testsupport.Fig1Fixed,
			Input:         testsupport.Fig1Input,
			RootFrag:      "read() * 0",
		},
		{
			Name:          "fig1-twin",
			Source:        testsupport.Fig1Faulty,
			CorrectSource: testsupport.Fig1Fixed,
			Input:         testsupport.Fig1Input,
			RootFrag:      "read() * 0",
		},
	}}
	res, err := LocateCorpus(context.Background(), m, CorpusOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Located != 2 || res.Failed != 0 {
		t.Fatalf("located=%d failed=%d, want 2/0", res.Located, res.Failed)
	}
	for i := range res.Subjects {
		if !res.Subjects[i].Located() {
			t.Errorf("%s not located: %v", res.Subjects[i].Name, res.Subjects[i].Err)
		}
	}
}

// TestErrNotLocatedTaxonomy checks the exported sentinel flows out of a
// corpus subject whose root fragment never enters the candidate set.
func TestErrNotLocatedTaxonomy(t *testing.T) {
	m := &CorpusManifest{Subjects: []CorpusSubject{{
		Name:     "never",
		Source:   "func main() {\n    var a = read();\n    var dead = 7;\n    print(a + 1);\n}",
		Input:    []int64{1},
		Expected: []int64{3},
		RootFrag: "var dead",
	}}}
	res, err := LocateCorpus(context.Background(), m, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Subjects[0].Err, ErrNotLocated) {
		t.Fatalf("subject error %v does not match ErrNotLocated", res.Subjects[0].Err)
	}
}
