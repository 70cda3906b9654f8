// Package serve is the resident localization server: the corpus driver
// (internal/corpus) promoted from a batch process to a long-running
// multi-tenant HTTP daemon holding bounded warm state — the
// content-keyed compile cache and the cross-request switched-run cache,
// both LRU caches in one corpus.Shared — behind per-tenant token-bucket
// rate limiting and bounded-queue admission control.
//
// # Endpoints (all JSON, wire types from internal/api)
//
//	POST /v1/locate            one subject  -> api.LocateResponse
//	POST /v1/corpus            manifest     -> api.CorpusReport
//	POST /v1/corpus?async=1    manifest     -> 202 api.JobStatus
//	GET  /v1/jobs/{id}                      -> api.JobStatus
//	GET  /v1/jobs/{id}/events               -> NDJSON stream of obs.Event
//	GET  /v1/healthz                        -> liveness
//	GET  /v1/statsz                         -> Statsz (ops counters)
//
// # Determinism
//
// Responses carry only the scheduling-independent result fields
// (api.NewCorpusReport with timing off), so a response for a given
// manifest is byte-identical to `eolcorpus -o` for the same subjects —
// regardless of concurrency, admission order, or cache warmth. The
// events stream is the corpus journal (docs/CORPUS.md), which carries
// the same guarantee. Wall-clock-dependent numbers live only in
// /v1/statsz. Pinned by the A/B suite in determinism_test.go and `make
// serve-smoke`.
//
// # Admission control
//
// Three bounds, crossed in order per request: the tenant's token
// bucket (rate × burst; 429 + Retry-After on empty), the session-slot
// pool (Sessions concurrent localizations), and the wait queue (Queue
// requests blocked on a slot; 429 when full). Async jobs skip the wait
// queue — the bounded job table is their queue — but still occupy
// session slots while running. See docs/SERVER.md.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"eol/internal/api"
	"eol/internal/corpus"
	"eol/internal/interp"
)

// maxBodyBytes bounds request bodies (manifests with inlined sources).
const maxBodyBytes = 16 << 20

// Config sizes a Server. The zero value is a usable single-tenant
// development server: unlimited rate, GOMAXPROCS sessions, a small
// queue, default caches.
type Config struct {
	// Corpus shapes each request's run: Shards, VerifyWorkers,
	// CacheSize, Backend and the default per-subject Deadline all apply
	// per request. Shared and Observer are owned by the server and
	// ignored here.
	Corpus corpus.Options
	// MaxDeadline caps every subject's deadline (and supplies it where
	// none is set), so no tenant can pin a session slot forever
	// (0 = uncapped).
	MaxDeadline time.Duration
	// Sessions bounds concurrently running requests (0 = GOMAXPROCS).
	Sessions int
	// Queue bounds requests waiting for a session slot
	// (0 = 2×Sessions); beyond it the server sheds load with 429.
	Queue int
	// Rate is each tenant's sustained request rate in requests/second
	// (0 = unlimited); Burst the bucket depth (0 = max(1, Rate)).
	Rate  float64
	Burst int
	// MaxJobs bounds the async job table (0 = 64). Finished jobs are
	// evicted oldest-first to make room; when every job is live, new
	// async submissions are rejected.
	MaxJobs int
	// Now is the clock used by rate limiting (nil = time.Now; tests
	// inject a fake).
	Now func() time.Time
}

// Statsz is the GET /v1/statsz body: operational counters. Unlike the
// result documents these are deliberately scheduling-dependent — cache
// warmth, queue depth, and tenant traffic are what an operator watches.
// CompiledPrograms is the compile cache's size (at most 64), Cache the
// switched-run cache's traffic and CompileCache the compile cache's.
type Statsz struct {
	SchemaVersion    int            `json:"schema_version"`
	UptimeMS         float64        `json:"uptime_ms"`
	LocateRequests   int64          `json:"locate_requests"`
	CorpusRequests   int64          `json:"corpus_requests"`
	Admitted         int64          `json:"admitted"`
	RejectedRate     int64          `json:"rejected_rate"`
	RejectedQueue    int64          `json:"rejected_queue"`
	Inflight         int            `json:"inflight"`
	Queued           int            `json:"queued"`
	Jobs             int            `json:"jobs"`
	Tenants          int            `json:"tenants"`
	CompiledPrograms int            `json:"compiled_programs"`
	Cache            api.CacheStats `json:"cache"`
	CompileCache     api.CacheStats `json:"compile_cache"`
}

// Health is the GET /v1/healthz body.
type Health struct {
	SchemaVersion int  `json:"schema_version"`
	OK            bool `json:"ok"`
}

// Server is the resident localization service. Create with New; it
// implements http.Handler. Close cancels running async jobs.
type Server struct {
	cfg     Config
	shared  *corpus.Shared
	adm     *admission
	buckets *bucketSet
	jobs    *jobTable
	mux     *http.ServeMux
	start   time.Time
	baseCtx context.Context
	cancel  context.CancelFunc

	locateReqs, corpusReqs      atomic.Int64
	admitted                    atomic.Int64
	rejectedRate, rejectedQueue atomic.Int64
}

// New builds a server with its warm state. The switched-run cache is
// sized by cfg.Corpus.CacheSize (0 = default, negative = disabled).
func New(cfg Config) *Server {
	if cfg.Sessions <= 0 {
		cfg.Sessions = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 2 * cfg.Sessions
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 64
	}
	s := &Server{
		cfg:     cfg,
		shared:  corpus.NewShared(cfg.Corpus.CacheSize),
		adm:     newAdmission(cfg.Sessions, cfg.Queue),
		buckets: newBucketSet(cfg.Rate, cfg.Burst, cfg.Now),
		jobs:    newJobTable(cfg.MaxJobs),
		mux:     http.NewServeMux(),
		start:   time.Now(),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/locate", s.handleLocate)
	s.mux.HandleFunc("POST /v1/corpus", s.handleCorpus)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels running async jobs (their subjects report class
// "canceled", like any other aborted run).
func (s *Server) Close() { s.cancel() }

// tenantOf keys rate limiting and job visibility: the X-Tenant header,
// or "default".
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// writeJSON writes v with status via the shared api encoding, so
// response bytes match batch output bytes for equal values.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	api.Encode(w, v) // nothing to do about a failed write mid-response
}

// fail writes the standard error body for class.
func (s *Server) fail(w http.ResponseWriter, class, format string, args ...any) {
	writeJSON(w, api.HTTPStatus(class), api.Errorf(class, format, args...))
}

// reject writes a 429 with a Retry-After hint.
func (s *Server) reject(w http.ResponseWriter, retry time.Duration, format string, args ...any) {
	secs := int(retry / time.Second)
	if retry%time.Second != 0 || secs == 0 {
		secs++ // ceil; never advertise "retry immediately"
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.fail(w, api.CodeRejected, format, args...)
}

// rateAdmit spends one token of the tenant's bucket; on refusal it
// writes the 429 and reports false.
func (s *Server) rateAdmit(w http.ResponseWriter, tenant string) bool {
	ok, retry := s.buckets.take(tenant)
	if !ok {
		s.rejectedRate.Add(1)
		s.reject(w, retry, "tenant %q rate limit exceeded", tenant)
		return false
	}
	return true
}

// queueAdmit acquires a session slot through the bounded wait queue; on
// success the caller must s.adm.release().
func (s *Server) queueAdmit(w http.ResponseWriter, r *http.Request) bool {
	if err := s.adm.admit(r.Context()); err != nil {
		if errors.Is(err, errQueueFull) {
			s.rejectedQueue.Add(1)
			s.reject(w, time.Second, "server at capacity (%d running, %d queued)", s.cfg.Sessions, s.cfg.Queue)
			return false
		}
		// The client gave up (or its deadline passed) while queued.
		class := api.CodeOf(interp.CtxErr(err))
		s.fail(w, class, "abandoned while queued: %v", err)
		return false
	}
	s.admitted.Add(1)
	return true
}

// runOptions shapes one request's corpus run over the server's warm
// state.
func (s *Server) runOptions() corpus.Options {
	o := s.cfg.Corpus
	o.Shared = s.shared
	o.Observer = nil
	if s.cfg.MaxDeadline > 0 && (o.Deadline <= 0 || o.Deadline > s.cfg.MaxDeadline) {
		o.Deadline = s.cfg.MaxDeadline
	}
	return o
}

// clampDeadlines enforces MaxDeadline on every subject.
func (s *Server) clampDeadlines(m *corpus.Manifest) {
	max := s.cfg.MaxDeadline
	if max <= 0 {
		return
	}
	for i := range m.Subjects {
		if d := m.Subjects[i].Deadline.D(); d <= 0 || d > max {
			m.Subjects[i].Deadline = corpus.Duration(max)
		}
	}
}

func (s *Server) handleLocate(w http.ResponseWriter, r *http.Request) {
	s.locateReqs.Add(1)
	if !s.rateAdmit(w, tenantOf(r)) {
		return
	}
	req, err := api.DecodeLocateRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.fail(w, api.CodeInvalid, "bad locate request: %v", err)
		return
	}
	m, err := req.Manifest()
	if err != nil {
		s.fail(w, api.CodeInvalid, "bad subject: %v", err)
		return
	}
	s.clampDeadlines(m)
	if !s.queueAdmit(w, r) {
		return
	}
	defer s.adm.release()
	res, err := corpus.Run(r.Context(), m, s.runOptions())
	if err != nil {
		s.fail(w, api.CodeInvalid, "%v", err)
		return
	}
	// Subject-level failures (deadline, budget, not located) are result
	// rows, exactly as in batch output — the transport succeeded.
	writeJSON(w, http.StatusOK, &api.LocateResponse{
		SchemaVersion: api.SchemaVersion,
		SubjectResult: api.NewSubjectResult(&res.Subjects[0], false),
	})
}

func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	s.corpusReqs.Add(1)
	tenant := tenantOf(r)
	if !s.rateAdmit(w, tenant) {
		return
	}
	req, err := api.DecodeCorpusRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.fail(w, api.CodeInvalid, "bad corpus request: %v", err)
		return
	}
	m, err := req.Manifest()
	if err != nil {
		s.fail(w, api.CodeInvalid, "bad manifest: %v", err)
		return
	}
	s.clampDeadlines(m)

	if async := r.URL.Query().Get("async"); async == "1" || async == "true" {
		j, ok := s.jobs.add(tenant)
		if !ok {
			s.rejectedQueue.Add(1)
			s.reject(w, time.Second, "job table full (%d live jobs)", s.cfg.MaxJobs)
			return
		}
		go s.runJob(j, m)
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}

	if !s.queueAdmit(w, r) {
		return
	}
	defer s.adm.release()
	res, err := corpus.Run(r.Context(), m, s.runOptions())
	if err != nil {
		s.fail(w, api.CodeInvalid, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, api.NewCorpusReport(res, false, 0))
}

// runJob executes one async corpus job. Accepted jobs wait for a
// session slot without a queue bound (the job table is their bound) and
// are cut short by server shutdown, not by the submitting request's
// lifetime.
func (s *Server) runJob(j *job, m *corpus.Manifest) {
	if err := s.adm.admitAsync(s.baseCtx); err != nil {
		j.finish(nil, api.Errorf(api.CodeCanceled, "server shutting down: %v", err))
		return
	}
	defer s.adm.release()
	s.admitted.Add(1)
	j.setState(api.JobRunning)
	opts := s.runOptions()
	opts.Observer = j.feed // the deterministic corpus journal, streamed
	res, err := corpus.Run(s.baseCtx, m, opts)
	if err != nil {
		j.finish(nil, api.Errorf(api.CodeInvalid, "%v", err))
		return
	}
	j.finish(api.NewCorpusReport(res, false, 0), nil)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"), tenantOf(r))
	if j == nil {
		s.fail(w, api.CodeNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobEvents streams the job's corpus journal as NDJSON — one
// obs.Event per line, flushed as they arrive — following until the job
// finishes. A journal validator (cmd/journalcheck) accepts the stream
// verbatim.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"), tenantOf(r))
	if j == nil {
		s.fail(w, api.CodeNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)

	ctx := r.Context()
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	go func() {
		// sync.Cond cannot select on a context; poke the feed so a
		// blocked next call re-checks ctx.
		select {
		case <-ctx.Done():
			j.feed.wake()
		case <-watcherDone:
		}
	}()
	stop := func() bool { return ctx.Err() != nil }
	for i := 0; ; i++ {
		e, ok := j.feed.next(i, stop)
		if !ok {
			return
		}
		b, err := json.Marshal(e)
		if err != nil {
			return
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, &Health{SchemaVersion: api.SchemaVersion, OK: true})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	inflight, queued := s.adm.load()
	writeJSON(w, http.StatusOK, &Statsz{
		SchemaVersion:    api.SchemaVersion,
		UptimeMS:         float64(time.Since(s.start)) / float64(time.Millisecond),
		LocateRequests:   s.locateReqs.Load(),
		CorpusRequests:   s.corpusReqs.Load(),
		Admitted:         s.admitted.Load(),
		RejectedRate:     s.rejectedRate.Load(),
		RejectedQueue:    s.rejectedQueue.Load(),
		Inflight:         inflight,
		Queued:           queued,
		Jobs:             s.jobs.len(),
		Tenants:          s.buckets.tenants(),
		CompiledPrograms: s.shared.CompiledPrograms(),
		Cache:            api.NewCacheStats(s.shared.RunCacheStats()),
		CompileCache:     api.NewCacheStats(s.shared.CompileCacheStats()),
	})
}

// String renders the server's sizing for logs.
func (s *Server) String() string {
	return fmt.Sprintf("serve.Server{sessions=%d queue=%d rate=%g burst=%d}",
		s.cfg.Sessions, s.cfg.Queue, s.cfg.Rate, s.cfg.Burst)
}
