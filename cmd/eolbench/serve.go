package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"eol/internal/api"
	"eol/internal/corpus"
	"eol/internal/serve"
)

// server is one eolserve process with default flags on a loopback port.
type server struct {
	cmd      *exec.Cmd
	url      string
	stderr   bytes.Buffer
	done     chan error
	stopOnce sync.Once
}

// startServer starts bin and waits until /v1/healthz answers. The bound
// address is handed over through a file next to the binary, so the run
// writes only where the binary lives.
func startServer(bin string, client *http.Client) (*server, error) {
	addrFile := filepath.Join(filepath.Dir(bin), fmt.Sprintf("eolserve-%d.addr", os.Getpid()))
	os.Remove(addrFile)
	s := &server{done: make(chan error, 1)}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting eolserve: %w", err)
	}
	go func() { s.done <- s.cmd.Wait() }()
	defer os.Remove(addrFile)

	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			s.url = "http://" + strings.TrimSpace(string(b))
			break
		}
		if err := s.waitFor(deadline); err != nil {
			return nil, err
		}
	}
	for {
		resp, err := client.Get(s.url + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if err := s.waitFor(deadline); err != nil {
			return nil, err
		}
	}
}

// waitFor pauses before the next start-up poll, failing when the server
// exited or the deadline passed.
func (s *server) waitFor(deadline time.Time) error {
	select {
	case err := <-s.done:
		s.done <- err
		return fmt.Errorf("eolserve exited during start-up (%v): %s", err, s.stderr.String())
	case <-time.After(5 * time.Millisecond):
	}
	if time.Now().After(deadline) {
		s.stop()
		return errors.New("eolserve did not become healthy within 30s")
	}
	return nil
}

// stop shuts the server down gracefully and waits for it to exit,
// killing it if the drain takes too long. Later calls do nothing.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(15 * time.Second):
			s.cmd.Process.Kill()
			<-s.done
		}
	})
}

// statsz fetches the server's operational counters.
func (s *server) statsz(client *http.Client) (*serve.Statsz, error) {
	resp, err := client.Get(s.url + "/v1/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serve.Statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	return &st, nil
}

// wireSubject is s as a manifest subject: inline sources and the root
// fragment, every engine option left to the server's defaults.
func wireSubject(s subject) corpus.Subject {
	return corpus.Subject{
		Name: s.name, Source: s.faulty, CorrectSource: s.correct,
		Input: s.input, RootFrag: s.rootFrag,
	}
}

// digestResult hashes a wire result row without its name: equal digests
// mean equal answers.
func digestResult(r *api.SubjectResult) uint64 {
	var b []byte
	b = append(b, r.Class...)
	located := int64(0)
	if r.Located {
		located = 1
	}
	for _, v := range []int64{located, int64(r.UserPrunings), int64(r.Verifications), int64(r.Iterations),
		int64(r.ExpandedEdges), int64(r.StrongEdges), int64(r.ImplicitEdges), int64(r.IPSStatic),
		int64(r.IPSDynamic), r.StaticReachSkips, r.ReplaySkips} {
		b = binary.AppendVarint(b, v)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// serveRates are the fixed open-loop arrival rates, requests per second.
var serveRates = [2]float64{100, 250}

// runServeOpen drives an eolserve binary: open loop at 100 and then 250
// requests per second of the mix, then nproc clients in a closed loop on
// the warm subjects for the capacity. Each phase gets a third of the
// window.
func runServeOpen(cfg config) (*report, error) {
	rep := &report{workload: "serve-open"}
	paper, err := paperSubjects(false)
	if err != nil {
		return nil, err
	}
	mix := &serveMix{seed: cfg.seed, paper: paper}
	bodies := map[string][]byte{}
	for _, p := range paper {
		b, err := json.Marshal(&api.LocateRequest{SchemaVersion: api.SchemaVersion, Subject: wireSubject(p)})
		if err != nil {
			return nil, err
		}
		bodies[p.name] = b
	}
	conns := runtime.NumCPU()
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	defer client.CloseIdleConnections()
	chk := newChecker()

	send := func(ctx context.Context, srv *server, s subject) error {
		body, ok := bodies[s.name]
		if !ok {
			var err error
			if body, err = json.Marshal(&api.LocateRequest{SchemaVersion: api.SchemaVersion, Subject: wireSubject(s)}); err != nil {
				return err
			}
		}
		b, err := post(ctx, client, srv.url+"/v1/locate", body)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		var resp api.LocateResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			return fmt.Errorf("%s: decoding response: %w", s.name, err)
		}
		if !resp.Located {
			return fmt.Errorf("%s: not located (class %q)", s.name, resp.Class)
		}
		return chk.observe(s.family, digestResult(&resp.SubjectResult))
	}

	// Set-up: process start to healthy, plus one warm-up request per
	// bench case. Repeated; the last server stays up for the phases.
	var srv *server
	setup, err := timeSetup(setupReps, func() error {
		if srv != nil {
			srv.stop()
		}
		var err error
		if srv, err = startServer(cfg.eolserve, client); err != nil {
			return err
		}
		for _, p := range paper {
			if err := send(context.Background(), srv, p); err != nil {
				srv.stop()
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	// The capacity phase sends only warm subjects, so how many new sources
	// reach the server, and with them its cache growth and peak RSS, does
	// not depend on how fast it serves.
	phase := window / 3
	next := 0
	sendMix := func(ctx context.Context, i int) error { return send(ctx, srv, mix.subject(i)) }
	sendWarm := func(ctx context.Context, i int) error { return send(ctx, srv, mix.warm(i)) }
	var phases [3]*loadResult
	for k, rate := range serveRates {
		phases[k] = openLoop(context.Background(), sendMix, next, rate, phase)
		next += phases[k].sent
	}
	phases[2] = closedLoopHTTP(context.Background(), sendWarm, next, conns, phase)
	for _, p := range phases {
		rep.attempted += int64(p.sent)
		rep.failed += int64(p.failed)
		for _, err := range p.errs {
			rep.problem("%v", err)
		}
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	st, err := srv.statsz(client)
	if err != nil {
		return nil, err
	}
	srv.stop()

	if !cfg.trace {
		rep.addThroughput(&phases[2].ops)
		rep.addLatency(&phases[1].ops)
		rep.add("peak_rss_mb", "MB", rss, 0)
		rep.add("setup_s", "s", setup, setupReps)
	}

	late := durationsMS(append(append([]time.Duration(nil), phases[0].late...), phases[1].late...))
	lateP99, _ := percentile(late, 0.99)
	rep.add("loadgen.late_ms_p99", "ms", lateP99, len(late))
	rep.add("loadgen.sent_per_s", "1/s", float64(phases[1].sent)/phases[1].elapsed.Seconds(), phases[1].sent)
	r100 := phases[0].ops.blockMedians()
	rep.add("loadgen.p50_ms_r100", "ms", r100.p50, phases[0].sent)
	rep.add("loadgen.p90_ms_r100", "ms", r100.p90, phases[0].sent)
	rep.add("serve.admitted", "count", float64(st.Admitted), 0)
	rep.add("serve.rejected_queue", "count", float64(st.RejectedQueue), 0)
	rep.add("serve.compiled_programs", "count", float64(st.CompiledPrograms), 0)
	rep.add("serve.cache_hit_rate", "ratio", st.Cache.HitRate, 0)

	// The reference interpreter must give every bench case the answer
	// the server gave.
	var oracle corpus.Manifest
	for _, p := range paper {
		oracle.Subjects = append(oracle.Subjects, wireSubject(p))
	}
	res, err := corpus.Run(context.Background(), &oracle, corpus.Options{Backend: "tree"})
	if err != nil {
		return nil, err
	}
	var families []string
	for i := range res.Subjects {
		row := api.NewSubjectResult(&res.Subjects[i], false)
		if err := chk.observe(paper[i].family, digestResult(&row)); err != nil {
			rep.problem("tree-walker oracle: %v", err)
		}
		families = append(families, paper[i].family)
	}
	rep.digest = chk.combinedDigest(families)

	if cfg.trace {
		jobs, err := prepareAll(paper)
		if err != nil {
			return nil, err
		}
		if err := tracedPass(jobs, window, newChecker(), rep, cfg.spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
