package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"eol/internal/api"
	"eol/internal/corpus"
	"eol/internal/obs"
)

const smokeManifest = "../../testdata/corpus/smoke.json"

// loadManifest loads the smoke manifest (2 locating fig1 subjects + one
// 5ms-deadline subject — all three row sets are deterministic, pinned
// by the cmd test TestEolcorpusSmoke).
func loadManifest(t testing.TB) *corpus.Manifest {
	t.Helper()
	m, err := corpus.Load(smokeManifest)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func startServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// post sends body with optional tenant and returns status, headers, and
// response bytes.
func post(t testing.TB, url, tenant string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// postRaw is post without the testing.TB — safe off the test goroutine.
// Failures come back as status 0.
func postRaw(url, tenant string, body []byte) (int, http.Header, []byte) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b
}

func get(t testing.TB, url, tenant string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// corpusBody marshals the smoke manifest as a wire corpus request.
func corpusBody(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := api.Encode(&buf, api.RequestFromManifest(loadManifest(t))); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHealthz(t *testing.T) {
	_, ts := startServer(t, Config{})
	code, b := get(t, ts.URL+"/v1/healthz", "")
	if code != 200 || !strings.Contains(string(b), `"ok": true`) {
		t.Fatalf("healthz: %d %s", code, b)
	}
}

// TestInvalidRequests: malformed bodies are 400/invalid, before any
// session slot is consumed.
func TestInvalidRequests(t *testing.T) {
	_, ts := startServer(t, Config{})
	cases := []struct {
		name, path, body string
	}{
		{"bad json", "/v1/locate", `{`},
		{"unknown field", "/v1/locate", `{"source":"main(){}","expected":[1],"bogus":1}`},
		{"future schema", "/v1/locate", `{"schema_version":99,"source":"main(){}","expected":[1]}`},
		{"file ref", "/v1/locate", `{"file":"/etc/passwd","expected":[1]}`},
		{"no subjects", "/v1/corpus", `{"subjects":[]}`},
		{"no expected", "/v1/corpus", `{"subjects":[{"source":"main(){}"}]}`},
		{"unknown feature", "/v1/locate", `{"source":"main(){}","expected":[1],"features":{"warp_drive":"on"}}`},
		{"bad feature mode", "/v1/corpus", `{"subjects":[{"source":"main(){}","expected":[1],"features":{"speculation":"maybe"}}]}`},
		{"unknown backend", "/v1/locate", `{"source":"main(){}","expected":[1],"backend":"quantum"}`},
		{"unknown default backend", "/v1/corpus", `{"defaults":{"backend":"quantum"},"subjects":[{"source":"main(){}","expected":[1]}]}`},
	}
	for _, c := range cases {
		code, _, b := post(t, ts.URL+c.path, "", []byte(c.body))
		if code != 400 {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, code, b)
		}
		var eb api.ErrorBody
		if err := json.Unmarshal(b, &eb); err != nil || eb.Class != api.CodeInvalid {
			t.Errorf("%s: error body %s (err %v), want class invalid", c.name, b, err)
		}
	}
	var st Statsz
	_, sb := get(t, ts.URL+"/v1/statsz", "")
	if err := json.Unmarshal(sb, &st); err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 0 {
		t.Errorf("invalid requests consumed %d session slots", st.Admitted)
	}
}

// TestAsyncJobAndEvents drives the async path end to end: submit,
// poll to done, stream events, and pin the stream to the journal
// corpus.Run itself emits for the same manifest — the wire feed IS the
// deterministic corpus journal.
func TestAsyncJobAndEvents(t *testing.T) {
	_, ts := startServer(t, Config{})
	code, _, b := post(t, ts.URL+"/v1/corpus?async=1", "", corpusBody(t))
	if code != 202 {
		t.Fatalf("async submit: %d %s", code, b)
	}
	var js api.JobStatus
	if err := json.Unmarshal(b, &js); err != nil {
		t.Fatal(err)
	}
	if js.ID == "" || js.State == api.JobDone {
		t.Fatalf("bad initial job status: %+v", js)
	}

	// The events stream follows until the job is done.
	code, events := get(t, ts.URL+"/v1/jobs/"+js.ID+"/events", "")
	if code != 200 {
		t.Fatalf("events: %d %s", code, events)
	}
	if err := obs.ValidateJournal(bytes.NewReader(events)); err != nil {
		t.Fatalf("event stream is not a valid journal: %v", err)
	}

	// Reference journal from a direct batch run.
	var want bytes.Buffer
	j := obs.NewJournal(&want)
	if _, err := corpus.Run(context.Background(), loadManifest(t), corpus.Options{Observer: j}); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(events, want.Bytes()) {
		t.Errorf("event stream differs from the batch corpus journal:\ngot:\n%s\nwant:\n%s", events, want.Bytes())
	}

	// After the stream ends the job must be done, with the report.
	code, jb := get(t, ts.URL+"/v1/jobs/"+js.ID, "")
	if code != 200 {
		t.Fatalf("job status: %d %s", code, jb)
	}
	if err := json.Unmarshal(jb, &js); err != nil {
		t.Fatal(err)
	}
	if js.State != api.JobDone || js.Report == nil || js.Error != nil {
		t.Fatalf("job not done with report: %+v", js)
	}
	if js.Report.Total != 3 || js.Report.Located != 2 {
		t.Errorf("report totals: %+v", js.Report)
	}
}

// TestJobTenantIsolation: a job id is visible only to the tenant that
// submitted it.
func TestJobTenantIsolation(t *testing.T) {
	_, ts := startServer(t, Config{})
	code, _, b := post(t, ts.URL+"/v1/corpus?async=1", "alice", corpusBody(t))
	if code != 202 {
		t.Fatalf("submit: %d %s", code, b)
	}
	var js api.JobStatus
	if err := json.Unmarshal(b, &js); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/"+js.ID, "mallory"); code != 404 {
		t.Errorf("foreign tenant read job: %d", code)
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/"+js.ID+"/events", "mallory"); code != 404 {
		t.Errorf("foreign tenant read events: %d", code)
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/"+js.ID, "alice"); code != 200 {
		t.Errorf("owner denied: %d", code)
	}
}

func TestUnknownJob(t *testing.T) {
	_, ts := startServer(t, Config{})
	code, b := get(t, ts.URL+"/v1/jobs/j0000000000000000", "")
	if code != 404 || !strings.Contains(string(b), api.CodeNotFound) {
		t.Errorf("unknown job: %d %s", code, b)
	}
}

// TestStatszWarmState: statsz reflects the warm caches accumulating
// across requests.
func TestStatszWarmState(t *testing.T) {
	_, ts := startServer(t, Config{})
	body := corpusBody(t)
	if code, _, b := post(t, ts.URL+"/v1/corpus", "", body); code != 200 {
		t.Fatalf("corpus: %d %s", code, b)
	}
	var st1 Statsz
	_, sb := get(t, ts.URL+"/v1/statsz", "")
	if err := json.Unmarshal(sb, &st1); err != nil {
		t.Fatal(err)
	}
	if st1.CompiledPrograms == 0 {
		t.Error("no compiled programs after a corpus run")
	}
	if code, _, b := post(t, ts.URL+"/v1/corpus", "", body); code != 200 {
		t.Fatalf("corpus (warm): %d %s", code, b)
	}
	var st2 Statsz
	_, sb = get(t, ts.URL+"/v1/statsz", "")
	if err := json.Unmarshal(sb, &st2); err != nil {
		t.Fatal(err)
	}
	if st2.Cache.Hits <= st1.Cache.Hits {
		t.Errorf("warm run added no cache hits: %d -> %d", st1.Cache.Hits, st2.Cache.Hits)
	}
	if st2.CompiledPrograms != st1.CompiledPrograms {
		t.Errorf("warm run recompiled: %d -> %d programs", st1.CompiledPrograms, st2.CompiledPrograms)
	}
	if st2.CorpusRequests != 2 || st2.Admitted != 2 {
		t.Errorf("request accounting: %+v", st2)
	}
}

// TestLoadGen exercises the open-loop harness against a live server:
// every request must come back, and quantiles must be populated.
func TestLoadGen(t *testing.T) {
	_, ts := startServer(t, Config{})
	lr := mustLoad(t, LoadOptions{BaseURL: ts.URL, Requests: 8, Rate: 200}, locateBody(t, 0))
	if lr.OK+lr.Rejected+lr.Errors != lr.Requests {
		t.Errorf("outcomes don't sum: %+v", lr)
	}
	if lr.OK == 0 || lr.P50MS <= 0 || lr.P99MS < lr.P50MS {
		t.Errorf("implausible load report: %s", lr.Summary())
	}
}

func mustLoad(t testing.TB, opts LoadOptions, body []byte) *LoadReport {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	lr, err := RunLoad(ctx, opts, body)
	if err != nil {
		t.Fatal(err)
	}
	return lr
}

// locateBody builds a wire locate request for subject i of the smoke
// manifest.
func locateBody(t testing.TB, i int) []byte {
	t.Helper()
	m := loadManifest(t)
	var buf bytes.Buffer
	req := &api.LocateRequest{SchemaVersion: api.SchemaVersion, Subject: m.Subjects[i]}
	req.File, req.CorrectFile = "", ""
	if err := api.Encode(&buf, req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
