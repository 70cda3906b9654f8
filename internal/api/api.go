// Package api is the versioned wire vocabulary of the localization
// service: the JSON request, response, and error shapes shared by the
// batch CLI (cmd/eolcorpus) and the resident server (internal/serve,
// cmd/eolserve). Both surfaces marshal exactly these types through
// Encode, so a server response for a manifest is byte-identical to the
// batch driver's -o output for the same subjects.
//
// # Versioning policy
//
// Every top-level document carries "schema_version". The current
// version is SchemaVersion; within one version fields are only ever
// added (never renamed, retyped, or reordered — encoding/json emits
// struct order, which is part of the byte-stability surface pinned by
// the golden tests). Decoding is strict: unknown fields are rejected
// (DisallowUnknownFields), and a request carrying a schema_version
// other than 0 (absent) or SchemaVersion is rejected with CodeInvalid,
// so version skew fails loudly instead of silently dropping fields.
//
// # Error codes
//
// Error classes are the stable string codes of the core.ErrClass
// taxonomy plus the transport-level codes the server adds (rejected,
// invalid, internal). The same strings appear in CLI exit diagnostics
// (cliutil.ExitErr), per-subject "class" fields, server error bodies,
// and the HTTP status mapping (HTTPStatus); see docs/SERVER.md for the
// full table.
package api

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"eol/internal/core"
	"eol/internal/corpus"
	"eol/internal/lru"
)

// SchemaVersion is the current wire schema version.
const SchemaVersion = 1

// Stable error codes. The first six are core.ErrClass names (pinned by
// tests); the rest exist only at the transport layer.
const (
	// CodeDeadline: the wall-clock bound expired (subject deadline or
	// whole-request deadline).
	CodeDeadline = "deadline"
	// CodeCanceled: the caller canceled the operation (fail-fast, client
	// disconnect, server shutdown).
	CodeCanceled = "canceled"
	// CodeBudget: the interpreter step budget was exhausted.
	CodeBudget = "budget"
	// CodeNotLocated: localization completed without the known root
	// cause entering the candidate set.
	CodeNotLocated = "not_located"
	// CodeNoFailure: the program's output matches the expected output.
	CodeNoFailure = "no_failure"
	// CodeError: any other localization failure (compile error, runtime
	// fault, internal error).
	CodeError = "error"

	// CodeRejected: the server's admission control refused the request
	// (token bucket empty or queue full). Retry after the Retry-After
	// interval.
	CodeRejected = "rejected"
	// CodeInvalid: the request was malformed (bad JSON, unknown field,
	// unsupported schema_version, invalid manifest).
	CodeInvalid = "invalid"
	// CodeNotFound: the requested resource (a job id) does not exist —
	// or belongs to another tenant, which is indistinguishable.
	CodeNotFound = "not_found"
)

// CodeOf names the stable code of a localization error — exactly
// core.ErrClass ("" for nil, CodeError for unclassified errors).
func CodeOf(err error) string { return core.ErrClass(err) }

// HTTPStatus maps an error code to the HTTP status the server responds
// with when the code terminates a whole request. Subject-level outcomes
// (budget, not_located, no_failure, and per-subject deadline/canceled)
// ride inside a 200 response's "class" fields, exactly as in batch
// output; see docs/SERVER.md.
func HTTPStatus(code string) int {
	switch code {
	case "":
		return 200
	case CodeInvalid:
		return 400
	case CodeNotFound:
		return 404
	case CodeRejected:
		return 429
	case CodeDeadline:
		return 504
	case CodeCanceled:
		return 503
	default:
		return 500
	}
}

// ErrorBody is the JSON body of every non-2xx server response.
type ErrorBody struct {
	SchemaVersion int    `json:"schema_version"`
	Class         string `json:"class"`
	Message       string `json:"message"`
}

// Errorf builds an ErrorBody with a formatted message.
func Errorf(class, format string, args ...any) *ErrorBody {
	return &ErrorBody{
		SchemaVersion: SchemaVersion,
		Class:         class,
		Message:       fmt.Sprintf(format, args...),
	}
}

// Error implements error, so an ErrorBody decoded from a response can be
// returned directly by client code.
func (e *ErrorBody) Error() string {
	return fmt.Sprintf("%s: %s", e.Class, e.Message)
}

// LocateRequest is the body of POST /v1/locate: one localization
// subject. The subject fields are exactly the corpus manifest subject
// fields (docs/CORPUS.md) except that file references (file,
// correct_file) are rejected — wire subjects carry program text inline.
type LocateRequest struct {
	SchemaVersion int `json:"schema_version,omitempty"`
	corpus.Subject
}

// CorpusRequest is the body of POST /v1/corpus: a whole manifest —
// defaults plus subjects — with the same inline-text restriction as
// LocateRequest.
type CorpusRequest struct {
	SchemaVersion int              `json:"schema_version,omitempty"`
	Defaults      corpus.Defaults  `json:"defaults,omitempty"`
	Subjects      []corpus.Subject `json:"subjects"`
}

// SubjectResult is one per-subject result row, identical in batch
// output and server responses. Fields from "error" on are populated
// only when timing output is requested: they depend on scheduling and
// would break the byte-determinism contract of the default output.
type SubjectResult struct {
	Name    string `json:"name"`
	Located bool   `json:"located"`
	Class   string `json:"class,omitempty"`

	UserPrunings  int `json:"user_prunings"`
	Verifications int `json:"verifications"`
	Iterations    int `json:"iterations"`
	ExpandedEdges int `json:"expanded_edges"`
	StrongEdges   int `json:"strong_edges"`
	ImplicitEdges int `json:"implicit_edges"`
	IPSStatic     int `json:"ips_static"`
	IPSDynamic    int `json:"ips_dynamic"`

	// ReplaySkips counts candidates retired by the trace-replay skip
	// filter without a switched run. It is decided in the engine's
	// sequential planning loop, so it is scheduling-independent and safe
	// for the deterministic output. StaticReachSkips always reads 0: it
	// counted the removed SPDG reach filter and stays so that
	// schema_version 1 responses keep the field.
	StaticReachSkips int64 `json:"static_reach_skips"`
	ReplaySkips      int64 `json:"replay_skips"`

	Error     string  `json:"error,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	Shard     *int    `json:"shard,omitempty"`
}

// LocateResponse is the body of a successful POST /v1/locate.
type LocateResponse struct {
	SchemaVersion int `json:"schema_version"`
	SubjectResult
}

// CacheStats reports the traffic of a shared cache: the switched-run
// cache, or on /v1/statsz also the compile cache (timing output only:
// hit/miss splits are scheduling-dependent).
type CacheStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// NewCacheStats converts a cache's counters to their wire form.
func NewCacheStats(c lru.Stats) CacheStats {
	return CacheStats{Hits: c.Hits, Misses: c.Misses, Evictions: c.Evictions, HitRate: c.HitRate()}
}

// CorpusReport is the whole-corpus result document: eolcorpus output
// and the body of a successful POST /v1/corpus. Fields from
// "elapsed_ms" on appear only in timing output.
type CorpusReport struct {
	SchemaVersion int             `json:"schema_version"`
	Subjects      []SubjectResult `json:"subjects"`
	Total         int             `json:"total"`
	Located       int             `json:"located"`
	Failed        int             `json:"failed"`

	ElapsedMS float64     `json:"elapsed_ms,omitempty"`
	Shards    int         `json:"shards,omitempty"`
	Cache     *CacheStats `json:"cache,omitempty"`
}

// Job states, as reported by GET /v1/jobs/{id}.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
)

// JobStatus describes an async corpus job: the body of the 202 response
// to POST /v1/corpus?async=1 and of GET /v1/jobs/{id}. Report and Error
// are set only once State is JobDone (exactly one of them).
type JobStatus struct {
	SchemaVersion int           `json:"schema_version"`
	ID            string        `json:"id"`
	State         string        `json:"state"`
	Report        *CorpusReport `json:"report,omitempty"`
	Error         *ErrorBody    `json:"error,omitempty"`
}

// NewSubjectResult converts one corpus subject outcome to its wire row.
// timing adds the scheduling-dependent fields.
func NewSubjectResult(sr *corpus.SubjectResult, timing bool) SubjectResult {
	row := SubjectResult{
		Name:    sr.Name,
		Located: sr.Located(),
		Class:   sr.Class,
	}
	if rep := sr.Report; rep != nil {
		row.UserPrunings = rep.Stats.UserPrunings
		row.Verifications = rep.Stats.Verifications
		row.Iterations = rep.Stats.Iterations
		row.ExpandedEdges = rep.Stats.ExpandedEdges
		row.StrongEdges = rep.Stats.StrongEdges
		row.ImplicitEdges = rep.Stats.ImplicitEdges
		row.IPSStatic = rep.IPS.Static
		row.IPSDynamic = rep.IPS.Dynamic
		row.StaticReachSkips = rep.Stats.StaticReachSkips
		row.ReplaySkips = rep.Stats.StaticSkips
	}
	if timing {
		if sr.Err != nil {
			row.Error = sr.Err.Error()
		}
		row.ElapsedMS = float64(sr.Elapsed) / float64(time.Millisecond)
		shard := sr.Shard
		row.Shard = &shard
	}
	return row
}

// NewCorpusReport converts a corpus result to its wire document. timing
// adds the scheduling-dependent fields; shards is reported only then.
func NewCorpusReport(res *corpus.Result, timing bool, shards int) *CorpusReport {
	out := &CorpusReport{
		SchemaVersion: SchemaVersion,
		Subjects:      make([]SubjectResult, len(res.Subjects)),
		Total:         len(res.Subjects),
		Located:       res.Located,
		Failed:        res.Failed,
	}
	for i := range res.Subjects {
		out.Subjects[i] = NewSubjectResult(&res.Subjects[i], timing)
	}
	if timing {
		out.ElapsedMS = float64(res.Elapsed) / float64(time.Millisecond)
		out.Shards = shards
		if res.SharedCache {
			c := NewCacheStats(res.Cache)
			out.Cache = &c
		}
	}
	return out
}

// Encode writes v as indented JSON with a trailing newline — the one
// serialization both the CLI and the server use, so equal values mean
// equal bytes.
func Encode(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Decode strictly decodes one JSON document from r into v: unknown
// fields and trailing data are errors.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}

// checkVersion accepts the current schema version or 0 (absent).
func checkVersion(v int) error {
	if v != 0 && v != SchemaVersion {
		return fmt.Errorf("unsupported schema_version %d (this build speaks %d)", v, SchemaVersion)
	}
	return nil
}

// DecodeLocateRequest strictly decodes and version-checks a locate
// request.
func DecodeLocateRequest(r io.Reader) (*LocateRequest, error) {
	var req LocateRequest
	if err := Decode(r, &req); err != nil {
		return nil, err
	}
	if err := checkVersion(req.SchemaVersion); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeCorpusRequest strictly decodes and version-checks a corpus
// request.
func DecodeCorpusRequest(r io.Reader) (*CorpusRequest, error) {
	var req CorpusRequest
	if err := Decode(r, &req); err != nil {
		return nil, err
	}
	if err := checkVersion(req.SchemaVersion); err != nil {
		return nil, err
	}
	return &req, nil
}

// rejectFileRefs enforces the inline-text restriction on wire subjects.
func rejectFileRefs(subjects []corpus.Subject) error {
	for i := range subjects {
		s := &subjects[i]
		if s.File != "" || s.CorrectFile != "" {
			return fmt.Errorf("subject %d (%s): file references are not accepted over the wire; inline the program text", i, s.Name)
		}
	}
	return nil
}

// Manifest converts the request to a validated, defaults-folded corpus
// manifest.
func (r *LocateRequest) Manifest() (*corpus.Manifest, error) {
	if err := rejectFileRefs([]corpus.Subject{r.Subject}); err != nil {
		return nil, err
	}
	m := &corpus.Manifest{Subjects: []corpus.Subject{r.Subject}}
	m.Fold()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Manifest converts the request to a validated, defaults-folded corpus
// manifest.
func (r *CorpusRequest) Manifest() (*corpus.Manifest, error) {
	if err := rejectFileRefs(r.Subjects); err != nil {
		return nil, err
	}
	m := &corpus.Manifest{Defaults: r.Defaults, Subjects: r.Subjects}
	m.Fold()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// RequestFromManifest turns a loaded (file-resolved) manifest into a
// wire corpus request: sources are already inlined by corpus.Load, so
// the file reference fields are cleared. This is what wire clients
// (cmd/eoloadgen) use to ship an on-disk manifest to a server.
func RequestFromManifest(m *corpus.Manifest) *CorpusRequest {
	req := &CorpusRequest{
		SchemaVersion: SchemaVersion,
		Defaults:      m.Defaults,
		Subjects:      make([]corpus.Subject, len(m.Subjects)),
	}
	copy(req.Subjects, m.Subjects)
	for i := range req.Subjects {
		req.Subjects[i].File = ""
		req.Subjects[i].CorrectFile = ""
	}
	return req
}
