package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"eol/internal/api"
	"eol/internal/corpus"
)

// batchBytes renders the smoke manifest exactly as `eolcorpus -o` does:
// corpus.Run with the given options, api.NewCorpusReport with timing
// off, api.Encode.
func batchBytes(t testing.TB, opts corpus.Options) []byte {
	t.Helper()
	res, err := corpus.Run(context.Background(), loadManifest(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := api.Encode(&buf, api.NewCorpusReport(res, false, 0)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeMatchesBatch is the core A/B determinism pin: a
// POST /v1/corpus response must be byte-identical to eolcorpus batch
// output for the same subjects — cold cache, warm cache, and across
// server concurrency configs.
func TestServeMatchesBatch(t *testing.T) {
	want := batchBytes(t, corpus.Options{})
	body := corpusBody(t)

	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"sharded", Config{Corpus: corpus.Options{Shards: 3, VerifyWorkers: 2}}},
		{"no run cache", Config{Corpus: corpus.Options{CacheSize: -1}}},
		// Backends are byte-identical (docs/VM.md), so pinning either one
		// explicitly must still reproduce the default batch bytes.
		{"tree backend", Config{Corpus: corpus.Options{Backend: "tree"}}},
		{"vm backend", Config{Corpus: corpus.Options{Backend: "vm"}}},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			_, ts := startServer(t, c.cfg)
			code, _, cold := post(t, ts.URL+"/v1/corpus", "", body)
			if code != 200 {
				t.Fatalf("cold: %d %s", code, cold)
			}
			if !bytes.Equal(cold, want) {
				t.Errorf("cold response differs from batch output:\ngot:\n%s\nwant:\n%s", cold, want)
			}
			// Second request reuses every warm cache; verdicts and
			// counters must not move.
			code, _, warm := post(t, ts.URL+"/v1/corpus", "", body)
			if code != 200 {
				t.Fatalf("warm: %d %s", code, warm)
			}
			if !bytes.Equal(warm, cold) {
				t.Errorf("warm response differs from cold:\ngot:\n%s\nwant:\n%s", warm, cold)
			}
		})
	}
}

// TestRemovedFeatureIgnored: schema_version 1 still accepts the
// "features" key and ignores it. Every engine feature is always on, and
// "speculation" and "static_reach" name removed ones, so a corpus
// request turning any of them off must get the bytes of the request
// without the key. staticreach.json makes the replay filter retire
// candidates, so a static_skip that still switched the filter off
// would change its replay_skips.
func TestRemovedFeatureIgnored(t *testing.T) {
	_, ts := startServer(t, Config{})
	for _, path := range []string{smokeManifest, "../../testdata/corpus/staticreach.json"} {
		request := func(features map[string]string) []byte {
			m, err := corpus.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := range m.Subjects {
				m.Subjects[i].Features = features
			}
			var body bytes.Buffer
			if err := api.Encode(&body, api.RequestFromManifest(m)); err != nil {
				t.Fatal(err)
			}
			code, _, got := post(t, ts.URL+"/v1/corpus", "", body.Bytes())
			if code != 200 {
				t.Fatalf("%s %v: status %d: %s", path, features, code, got)
			}
			return got
		}
		want := request(nil)
		for _, features := range []map[string]string{
			{"speculation": "on"},
			{"static_reach": "off"},
			{"checkpoints": "off"},
			{"incremental_reprune": "off"},
			{"static_skip": "off"},
		} {
			if got := request(features); !bytes.Equal(got, want) {
				t.Errorf("%s %v: response differs from the request without the key:\ngot:\n%s\nwant:\n%s", path, features, got, want)
			}
		}
	}
}

// TestWireBackendIgnored: schema_version 1 still accepts a "backend"
// key on subjects and defaults, validates it, and ignores it, so a
// request naming either backend gets the bytes of the request without
// the key. Every request runs on the VM.
func TestWireBackendIgnored(t *testing.T) {
	want := batchBytes(t, corpus.Options{})
	_, ts := startServer(t, Config{})
	for _, name := range []string{"tree", "vm"} {
		m := loadManifest(t)
		m.Defaults.Backend = name
		for i := range m.Subjects {
			m.Subjects[i].Backend = name
		}
		var body bytes.Buffer
		if err := api.Encode(&body, api.RequestFromManifest(m)); err != nil {
			t.Fatal(err)
		}
		code, _, got := post(t, ts.URL+"/v1/corpus", "", body.Bytes())
		if code != 200 {
			t.Fatalf("backend %q: status %d: %s", name, code, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("backend %q: response differs from the request without the key:\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestLocateMatchesCorpusRows: a /v1/locate response for one subject
// carries the same SubjectResult as that subject's row in the corpus
// report.
func TestLocateMatchesCorpusRows(t *testing.T) {
	_, ts := startServer(t, Config{})
	var report api.CorpusReport
	if err := json.Unmarshal(batchBytes(t, corpus.Options{}), &report); err != nil {
		t.Fatal(err)
	}
	for i, row := range report.Subjects {
		code, _, b := post(t, ts.URL+"/v1/locate", "", locateBody(t, i))
		if code != 200 {
			t.Fatalf("locate %s: %d %s", row.Name, code, b)
		}
		var resp api.LocateResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.SubjectResult != row {
			t.Errorf("locate %s row differs from corpus row:\ngot:  %+v\nwant: %+v", row.Name, resp.SubjectResult, row)
		}
	}
}

// TestConcurrentRequestsDeterministic hammers one server with parallel
// identical corpus requests; every response must be identical despite
// shared caches and slot contention.
func TestConcurrentRequestsDeterministic(t *testing.T) {
	_, ts := startServer(t, Config{Sessions: 2, Queue: 32})
	body := corpusBody(t)
	want := batchBytes(t, corpus.Options{})

	const n = 6
	type outcome struct {
		body []byte
		err  error
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func() {
			// Plain http here: t.Fatal is not legal off the test goroutine.
			resp, err := http.Post(ts.URL+"/v1/corpus", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err == nil && resp.StatusCode != 200 {
				err = fmt.Errorf("status %d: %s", resp.StatusCode, b)
			}
			results <- outcome{body: b, err: err}
		}()
	}
	for i := 0; i < n; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("concurrent request: %v", o.err)
		}
		if !bytes.Equal(o.body, want) {
			t.Errorf("concurrent response %d differs from batch output", i)
		}
	}
}
