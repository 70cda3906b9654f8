package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchPost posts body and fails the benchmark on a non-200.
func benchPost(b *testing.B, url string, body []byte) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkServeLocateWarm measures steady-state /v1/locate latency
// with every cache warm — the daemon's reason to exist. Compare with
// BenchmarkServeLocateCold for the warm-state payoff.
func BenchmarkServeLocateWarm(b *testing.B) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()
	body := locateBody(b, 0)
	benchPost(b, ts.URL+"/v1/locate", body) // warm the caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/locate", body)
	}
}

// BenchmarkServeLocateCold measures first-request latency against a
// fresh server per iteration: the compile and every switched run paid
// in full.
func BenchmarkServeLocateCold(b *testing.B) {
	body := locateBody(b, 0)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New(Config{})
		ts := httptest.NewServer(s)
		b.StartTimer()
		benchPost(b, ts.URL+"/v1/locate", body)
		b.StopTimer()
		ts.Close()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkServeCorpusWarm measures a whole warm corpus request (the
// smoke manifest) end to end over HTTP.
func BenchmarkServeCorpusWarm(b *testing.B) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()
	body := corpusBody(b)
	benchPost(b, ts.URL+"/v1/corpus", body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/corpus", body)
	}
}
