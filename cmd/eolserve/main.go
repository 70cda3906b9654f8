// Command eolserve is the resident localization server: the corpus
// driver behind HTTP/JSON, holding bounded warm state (an LRU compile
// cache of 64 programs and an LRU switched-run cache) across requests,
// with per-tenant token-bucket rate limiting and bounded-queue admission
// control. See docs/SERVER.md for the API and docs/CORPUS.md for the
// manifest format.
//
// Usage:
//
//	eolserve [flags]
//
//	-addr HOST:PORT   listen address (default 127.0.0.1:8080; use :0
//	                  for an ephemeral port)
//	-addr-file FILE   write the bound address there, for scripts using
//	                  -addr with port 0
//	-sessions N       concurrent localization requests (0 = GOMAXPROCS)
//	-queue N          requests allowed to wait for a session
//	                  (0 = 2×sessions); beyond it the server sheds
//	                  load with 429
//	-rate R           per-tenant sustained requests/second (0 = unlimited)
//	-burst N          per-tenant burst size (0 = max(1, rate))
//	-max-jobs N       live async jobs (0 = 64)
//	-max-deadline D   cap every subject's deadline (0 = uncapped)
//	-shards N         corpus shards per request (0 = GOMAXPROCS)
//	-workers N        verification workers per session (0 = GOMAXPROCS)
//	-cache N          switched-run cache size (negative = off)
//
// Responses for a given manifest are byte-identical to `eolcorpus -o`
// output for the same subjects, whatever the flags above. The server
// shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests. Exit status: 0 on clean shutdown, 1 on serve errors, 2 for
// command-line misuse.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"eol/internal/cliutil"
	"eol/internal/corpus"
	"eol/internal/serve"
)

// Connection timeouts: a client must finish its request headers within
// readHeaderTimeout of sending their first byte, and a keep-alive
// connection closes after idleTimeout without a request, so a stalled
// client cannot hold a connection forever. Bodies and responses are not
// timed, so NDJSON event streams and long localizations run for as long
// as their own deadlines allow.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addrFlag := flag.String("addr", "127.0.0.1:8080", "listen `address` (use :0 for an ephemeral port)")
	addrFileFlag := flag.String("addr-file", "", "write the bound listen address to this `file`")
	sessionsFlag := flag.Int("sessions", 0, "concurrent localization requests (0 = GOMAXPROCS)")
	queueFlag := flag.Int("queue", 0, "requests allowed to wait for a session (0 = 2×sessions)")
	rateFlag := flag.Float64("rate", 0, "per-tenant sustained requests/second (0 = unlimited)")
	burstFlag := flag.Int("burst", 0, "per-tenant burst size (0 = max(1, rate))")
	maxJobsFlag := flag.Int("max-jobs", 0, "live async jobs (0 = 64)")
	maxDeadlineFlag := flag.Duration("max-deadline", 0, "cap every subject's deadline (0 = uncapped)")
	shardsFlag := flag.Int("shards", 0, "corpus shards per request (0 = GOMAXPROCS)")
	engFlags := cliutil.RegisterEngineFlags(flag.CommandLine)
	flag.Parse()

	if flag.NArg() != 0 {
		cliutil.Usagef("usage: eolserve [flags] (see -h)")
	}

	srv := serve.New(serve.Config{
		Corpus: corpus.Options{
			Shards:        *shardsFlag,
			VerifyWorkers: engFlags.Workers,
			CacheSize:     engFlags.Cache,
		},
		MaxDeadline: *maxDeadlineFlag,
		Sessions:    *sessionsFlag,
		Queue:       *queueFlag,
		Rate:        *rateFlag,
		Burst:       *burstFlag,
		MaxJobs:     *maxJobsFlag,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addrFlag)
	if err != nil {
		cliutil.Fatalf("eolserve: %v", err)
	}
	if *addrFileFlag != "" {
		if err := os.WriteFile(*addrFileFlag, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			cliutil.Fatalf("eolserve: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "eolserve: listening on %s (%s)\n", ln.Addr(), srv)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{Handler: srv, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		cliutil.Fatalf("eolserve: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	fmt.Fprintln(os.Stderr, "eolserve: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
		cliutil.Fatalf("eolserve: shutdown: %v", err)
	}
}
