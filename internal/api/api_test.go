package api

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"strings"
	"testing"

	"eol/internal/core"
	"eol/internal/corpus"
	"eol/internal/interp"
)

// update regenerates the golden file: go test ./internal/api -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// fixedResult builds a deterministic corpus.Result without running
// anything, exercising every deterministic row field.
func fixedResult() *corpus.Result {
	rep := &core.Report{Located: true}
	rep.Stats.UserPrunings = 2
	rep.Stats.Verifications = 3
	rep.Stats.Iterations = 1
	rep.Stats.ExpandedEdges = 4
	rep.Stats.StrongEdges = 1
	rep.Stats.ImplicitEdges = 1
	rep.Stats.StaticReachSkips = 5
	rep.Stats.StaticSkips = 6
	rep.IPS.Static = 7
	rep.IPS.Dynamic = 8
	return &corpus.Result{
		Subjects: []corpus.SubjectResult{
			{Name: "good", Report: rep},
			{Name: "bad", Report: &core.Report{}, Err: core.ErrNotLocated, Class: "not_located"},
		},
		Located: 1,
		Failed:  1,
	}
}

// TestCorpusReportGolden pins the exact bytes of the deterministic
// (timing-free) corpus document — the byte-stability surface shared by
// eolcorpus -o and every eolserve response. If this changes, batch
// output changes for every user: update deliberately, with a CHANGES
// note.
func TestCorpusReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, NewCorpusReport(fixedResult(), false, 0)); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/corpus_report.golden"
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("corpus report bytes drifted from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestTimingFieldsOptIn: the scheduling-dependent fields stay out of the
// deterministic document and appear under timing.
func TestTimingFieldsOptIn(t *testing.T) {
	var det, tim bytes.Buffer
	res := fixedResult()
	res.SharedCache = true
	res.Cache.Hits, res.Cache.Misses = 3, 1
	if err := Encode(&det, NewCorpusReport(res, false, 4)); err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"elapsed_ms", "shard", "cache", "error"} {
		if strings.Contains(det.String(), banned) {
			t.Errorf("deterministic output contains %q", banned)
		}
	}
	if err := Encode(&tim, NewCorpusReport(res, true, 4)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"shards": 4`, `"hit_rate": 0.75`, `"error": "root cause not located"`, `"shard": 0`} {
		if !strings.Contains(tim.String(), want) {
			t.Errorf("timing output missing %q:\n%s", want, tim.String())
		}
	}
}

// TestStrictDecoding: unknown fields, trailing data, and foreign schema
// versions are rejected; version 0 (absent) and 1 are accepted.
func TestStrictDecoding(t *testing.T) {
	if _, err := DecodeLocateRequest(strings.NewReader(`{"source":"x","expected":[1],"bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := DecodeLocateRequest(strings.NewReader(`{"source":"x"} {"more":1}`)); err == nil {
		t.Error("trailing data accepted")
	}
	if _, err := DecodeLocateRequest(strings.NewReader(`{"schema_version":2,"source":"x"}`)); err == nil {
		t.Error("schema_version 2 accepted")
	}
	for _, body := range []string{`{"source":"x","expected":[1]}`, `{"schema_version":1,"source":"x","expected":[1]}`} {
		if _, err := DecodeLocateRequest(strings.NewReader(body)); err != nil {
			t.Errorf("valid request %s rejected: %v", body, err)
		}
	}
	if _, err := DecodeCorpusRequest(strings.NewReader(`{"subjects":[],"nope":true}`)); err == nil {
		t.Error("unknown corpus field accepted")
	}
}

// TestManifestConversion: wire requests reject file references, fold
// defaults, and validate.
func TestManifestConversion(t *testing.T) {
	req := &CorpusRequest{
		Defaults: corpus.Defaults{MaxIterations: 7},
		Subjects: []corpus.Subject{{Source: "main(){}", Expected: []int64{1}}},
	}
	m, err := req.Manifest()
	if err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if m.Subjects[0].Name != "subject-0" || m.Subjects[0].MaxIterations != 7 {
		t.Errorf("defaults not folded: %+v", m.Subjects[0])
	}

	req.Subjects[0].File = "evil.mc"
	if _, err := req.Manifest(); err == nil || !strings.Contains(err.Error(), "file references") {
		t.Errorf("file reference not rejected: %v", err)
	}
	req.Subjects[0].File = ""
	req.Subjects[0].Expected = nil
	if _, err := req.Manifest(); err == nil {
		t.Error("invalid manifest (no expected output) accepted")
	}

	lr := &LocateRequest{Subject: corpus.Subject{CorrectFile: "x.mc", Source: "main(){}"}}
	if _, err := lr.Manifest(); err == nil {
		t.Error("locate file reference not rejected")
	}
}

// TestWireFeatures: the additive features field decodes strictly, folds
// through Manifest(), and unknown names or modes are rejected there —
// which the server reports with the `invalid` code.
func TestWireFeatures(t *testing.T) {
	req, err := DecodeCorpusRequest(strings.NewReader(`{
  "defaults": {"features": {"checkpoints": "on"}},
  "subjects": [
    {"source": "main(){}", "expected": [1]},
    {"source": "main(){}", "expected": [1], "features": {"checkpoints": "off"}}
  ]
}`))
	if err != nil {
		t.Fatalf("features field rejected: %v", err)
	}
	m, err := req.Manifest()
	if err != nil {
		t.Fatalf("valid features rejected: %v", err)
	}
	if got := m.Subjects[0].Features["checkpoints"]; got != "on" {
		t.Errorf("default feature not folded: %v", m.Subjects[0].Features)
	}
	if got := m.Subjects[1].Features["checkpoints"]; got != "off" {
		t.Errorf("subject feature overridden: %v", m.Subjects[1].Features)
	}

	bad := &CorpusRequest{Subjects: []corpus.Subject{{
		Source: "main(){}", Expected: []int64{1},
		Features: map[string]string{"warp_drive": "on"},
	}}}
	if _, err := bad.Manifest(); err == nil || !strings.Contains(err.Error(), "warp_drive") {
		t.Errorf("unknown feature name not rejected: %v", err)
	}
	lr := &LocateRequest{Subject: corpus.Subject{
		Source: "main(){}", Expected: []int64{1},
		Features: map[string]string{"speculation": "maybe"},
	}}
	if _, err := lr.Manifest(); err == nil || !strings.Contains(err.Error(), "maybe") {
		t.Errorf("unknown feature mode not rejected: %v", err)
	}
}

// TestRequestFromManifest: loaded manifests ship with sources inlined
// and file references cleared, and survive the round trip through
// strict decoding.
func TestRequestFromManifest(t *testing.T) {
	m, err := corpus.Load("../../testdata/corpus/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	req := RequestFromManifest(m)
	for i := range req.Subjects {
		if req.Subjects[i].File != "" || req.Subjects[i].CorrectFile != "" {
			t.Fatalf("subject %d still carries file refs", i)
		}
		if req.Subjects[i].Source == "" {
			t.Fatalf("subject %d lost its source", i)
		}
	}
	// The original manifest must be untouched.
	if m.Subjects[0].File == "" {
		t.Error("RequestFromManifest mutated its input")
	}
	var buf bytes.Buffer
	if err := Encode(&buf, req); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCorpusRequest(&buf)
	if err != nil {
		t.Fatalf("round trip rejected: %v", err)
	}
	if _, err := dec.Manifest(); err != nil {
		t.Fatalf("round-tripped manifest invalid: %v", err)
	}
}

// TestCodesMatchErrClass pins the wire codes to the core.ErrClass
// taxonomy — the CLI exit handling and the server error bodies must
// speak the same strings.
func TestCodesMatchErrClass(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{interp.ErrDeadline, CodeDeadline},
		{interp.ErrCanceled, CodeCanceled},
		{interp.CtxErr(context.Canceled), CodeCanceled},
		{interp.CtxErr(context.DeadlineExceeded), CodeDeadline},
		{interp.ErrBudget, CodeBudget},
		{core.ErrNotLocated, CodeNotLocated},
		{core.ErrNoFailure, CodeNoFailure},
		{errors.New("boom"), CodeError},
	}
	for _, c := range cases {
		if got := CodeOf(c.err); got != c.want {
			t.Errorf("CodeOf(%v) = %q, want %q", c.err, got, c.want)
		}
		if got := core.ErrClass(c.err); got != CodeOf(c.err) {
			t.Errorf("core.ErrClass(%v) = %q diverges from CodeOf %q", c.err, got, CodeOf(c.err))
		}
	}
}

// TestHTTPStatus pins the whole code→status table.
func TestHTTPStatus(t *testing.T) {
	want := map[string]int{
		"":             200,
		CodeInvalid:    400,
		CodeRejected:   429,
		CodeDeadline:   504,
		CodeCanceled:   503,
		CodeBudget:     500,
		CodeNotLocated: 500,
		CodeNoFailure:  500,
		CodeError:      500,
	}
	for code, status := range want {
		if got := HTTPStatus(code); got != status {
			t.Errorf("HTTPStatus(%q) = %d, want %d", code, got, status)
		}
	}
}
