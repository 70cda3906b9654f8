// Command eoloadgen is the eolserve client and load generator. It
// drives a running server in one of four modes, selected by flags:
//
//	eoloadgen -base URL -healthz
//	    probe GET /v1/healthz; exit 0 iff the server reports ok.
//
//	eoloadgen -base URL -statsz
//	    fetch GET /v1/statsz and print it.
//
//	eoloadgen -base URL -corpus manifest.json [-o FILE]
//	    POST the manifest to /v1/corpus (file references are resolved
//	    locally and sources inlined) and write the response JSON —
//	    byte-identical to `eolcorpus -o` for the same subjects. With
//	    -async the manifest is submitted as a job, the event stream is
//	    written to -events FILE (NDJSON, journalcheck-compatible), and
//	    the final job report is the output. -salt N sends N copies of
//	    each subject instead, every copy's sources ending in a comment
//	    of its own, so the server sees N new programs per source (a
//	    soak of its warm state); -max-compiled M then reads /v1/statsz
//	    and fails if the server holds more than M compiled programs.
//
//	eoloadgen -base URL -subject manifest.json [-index N] -n N -rate R
//	    open-loop load run against POST /v1/locate: fire subject N of
//	    the manifest -n times at fixed arrival rate R per second
//	    (0 = closed loop), then print latency quantiles. Requests are
//	    fired on the schedule regardless of completions, so server
//	    queueing shows up as latency instead of being silently absorbed
//	    (coordinated omission). -min-rejected asserts a lower bound on
//	    429 responses (for smoke-testing admission control).
//
// Exit status: 0 on success, 1 when the probe/request/assertion fails,
// 2 for command-line misuse.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"

	"eol/internal/api"
	"eol/internal/cliutil"
	"eol/internal/corpus"
	"eol/internal/serve"
)

func main() {
	baseFlag := flag.String("base", "", "server base `URL`, e.g. http://127.0.0.1:8080")
	tenantFlag := flag.String("tenant", "", "X-Tenant header value")
	healthzFlag := flag.Bool("healthz", false, "probe /v1/healthz and exit")
	statszFlag := flag.Bool("statsz", false, "fetch /v1/statsz and exit")
	corpusFlag := flag.String("corpus", "", "POST this manifest `file` to /v1/corpus")
	asyncFlag := flag.Bool("async", false, "submit -corpus as an async job")
	eventsFlag := flag.String("events", "", "with -async: write the NDJSON event stream to this `file`")
	saltFlag := flag.Int("salt", 0, "corpus mode: send `N` copies of each subject, each with a unique trailing comment (0 = the manifest as is)")
	maxCompiledFlag := flag.Int("max-compiled", 0, "corpus mode: afterwards, fail if /v1/statsz reports more than `M` compiled programs (0 = no check)")
	subjectFlag := flag.String("subject", "", "load mode: manifest `file` supplying the locate subject")
	indexFlag := flag.Int("index", 0, "load mode: subject index within -subject")
	nFlag := flag.Int("n", 100, "load mode: total requests")
	rateFlag := flag.Float64("rate", 0, "load mode: arrival rate per second (0 = closed loop)")
	minRejectedFlag := flag.Int("min-rejected", 0, "load mode: fail unless at least N requests got 429")
	outFlag := flag.String("o", "", "write the JSON result to this `file` instead of stdout")
	flag.Parse()

	if *baseFlag == "" || flag.NArg() != 0 {
		cliutil.Usagef("usage: eoloadgen -base URL (-healthz | -statsz | -corpus FILE | -subject FILE) [flags] (see -h)")
	}
	if *saltFlag < 0 || *maxCompiledFlag < 0 {
		cliutil.Usagef("eoloadgen: -salt and -max-compiled must not be negative")
	}

	switch {
	case *healthzFlag:
		runHealthz(*baseFlag)
	case *statszFlag:
		runGet(*baseFlag+"/v1/statsz", *tenantFlag, *outFlag)
	case *corpusFlag != "":
		body := wireManifest(*corpusFlag, *saltFlag)
		if *asyncFlag {
			runAsync(*baseFlag, *tenantFlag, body, *eventsFlag, *outFlag)
		} else {
			runCorpus(*baseFlag, *tenantFlag, body, *outFlag)
		}
		if *maxCompiledFlag > 0 {
			checkCompiled(*baseFlag, *tenantFlag, *maxCompiledFlag)
		}
	case *subjectFlag != "":
		runLoad(*baseFlag, *tenantFlag, *subjectFlag, *indexFlag, *nFlag, *rateFlag, *minRejectedFlag, *outFlag)
	default:
		cliutil.Usagef("eoloadgen: pick a mode: -healthz, -statsz, -corpus or -subject (see -h)")
	}
}

// emit writes b to path ("" = stdout).
func emit(path string, b []byte) {
	if path == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		cliutil.Fatalf("eoloadgen: %v", err)
	}
}

// do performs one request and returns status and body; transport errors
// are fatal.
func do(method, url, tenant string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		cliutil.Fatalf("eoloadgen: %v", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cliutil.Fatalf("eoloadgen: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		cliutil.Fatalf("eoloadgen: %v", err)
	}
	return resp.StatusCode, b
}

func runHealthz(base string) {
	code, b := do(http.MethodGet, base+"/v1/healthz", "", nil)
	if code != http.StatusOK {
		cliutil.Fatalf("eoloadgen: healthz: status %d: %s", code, b)
	}
	fmt.Println("ok")
}

func runGet(url, tenant, out string) {
	code, b := do(http.MethodGet, url, tenant, nil)
	if code != http.StatusOK {
		cliutil.Fatalf("eoloadgen: status %d: %s", code, b)
	}
	emit(out, b)
}

// wireManifest loads a manifest file and converts it to the wire form
// (sources inlined, file references cleared). With salt > 0 each subject
// becomes salt copies of itself, salted as eolbench salts its subjects:
// both sources end in "// salt K" with K unique to the copy, so every
// copy is a new program text that behaves exactly like the original.
func wireManifest(path string, salt int) []byte {
	m, err := corpus.Load(path)
	if err != nil {
		cliutil.Fatalf("eoloadgen: %v", err)
	}
	if salt > 0 {
		var copies []corpus.Subject
		for _, s := range m.Subjects {
			for range salt {
				c := s
				tag := strconv.Itoa(len(copies))
				tail := "\n// salt " + tag + "\n"
				c.Name += "+salt" + tag
				c.Source += tail
				if c.CorrectSource != "" {
					c.CorrectSource += tail
				}
				copies = append(copies, c)
			}
		}
		m.Subjects = copies
	}
	var buf bytes.Buffer
	if err := api.Encode(&buf, api.RequestFromManifest(m)); err != nil {
		cliutil.Fatalf("eoloadgen: %v", err)
	}
	return buf.Bytes()
}

func runCorpus(base, tenant string, body []byte, out string) {
	code, b := do(http.MethodPost, base+"/v1/corpus", tenant, body)
	if code != http.StatusOK {
		cliutil.Fatalf("eoloadgen: corpus: status %d: %s", code, b)
	}
	emit(out, b)
}

func runAsync(base, tenant string, body []byte, events, out string) {
	code, b := do(http.MethodPost, base+"/v1/corpus?async=1", tenant, body)
	if code != http.StatusAccepted {
		cliutil.Fatalf("eoloadgen: async submit: status %d: %s", code, b)
	}
	var js api.JobStatus
	if err := json.Unmarshal(b, &js); err != nil {
		cliutil.Fatalf("eoloadgen: async submit: %v", err)
	}
	fmt.Fprintf(os.Stderr, "eoloadgen: job %s accepted\n", js.ID)

	// The event stream follows the job to completion; copying it to the
	// -events file doubles as the wait.
	code, stream := do(http.MethodGet, base+"/v1/jobs/"+js.ID+"/events", tenant, nil)
	if code != http.StatusOK {
		cliutil.Fatalf("eoloadgen: events: status %d: %s", code, stream)
	}
	if events != "" {
		emit(events, stream)
	}

	code, b = do(http.MethodGet, base+"/v1/jobs/"+js.ID, tenant, nil)
	if code != http.StatusOK {
		cliutil.Fatalf("eoloadgen: job status: status %d: %s", code, b)
	}
	if err := json.Unmarshal(b, &js); err != nil {
		cliutil.Fatalf("eoloadgen: job status: %v", err)
	}
	if js.State != api.JobDone || js.Error != nil {
		cliutil.Fatalf("eoloadgen: job %s: state %s, error %v", js.ID, js.State, js.Error)
	}
	var buf bytes.Buffer
	if err := api.Encode(&buf, js.Report); err != nil {
		cliutil.Fatalf("eoloadgen: %v", err)
	}
	emit(out, buf.Bytes())
}

// checkCompiled fails unless the server's compile cache holds at most
// max programs.
func checkCompiled(base, tenant string, max int) {
	code, b := do(http.MethodGet, base+"/v1/statsz", tenant, nil)
	if code != http.StatusOK {
		cliutil.Fatalf("eoloadgen: statsz: status %d: %s", code, b)
	}
	var st serve.Statsz
	if err := json.Unmarshal(b, &st); err != nil {
		cliutil.Fatalf("eoloadgen: statsz: %v", err)
	}
	if st.CompiledPrograms > max {
		cliutil.Fatalf("eoloadgen: server holds %d compiled programs, want <= %d", st.CompiledPrograms, max)
	}
	fmt.Fprintf(os.Stderr, "eoloadgen: %d compiled programs (<= %d)\n", st.CompiledPrograms, max)
}

func runLoad(base, tenant, manifest string, index, n int, rate float64, minRejected int, out string) {
	m, err := corpus.Load(manifest)
	if err != nil {
		cliutil.Fatalf("eoloadgen: %v", err)
	}
	if index < 0 || index >= len(m.Subjects) {
		cliutil.Fatalf("eoloadgen: -index %d out of range (%d subjects)", index, len(m.Subjects))
	}
	req := &api.LocateRequest{SchemaVersion: api.SchemaVersion, Subject: m.Subjects[index]}
	req.File, req.CorrectFile = "", ""
	var body bytes.Buffer
	if err := api.Encode(&body, req); err != nil {
		cliutil.Fatalf("eoloadgen: %v", err)
	}

	rep, err := serve.RunLoad(context.Background(), serve.LoadOptions{
		BaseURL:  base,
		Tenant:   tenant,
		Requests: n,
		Rate:     rate,
	}, body.Bytes())
	if err != nil {
		cliutil.Fatalf("eoloadgen: %v", err)
	}
	fmt.Fprintf(os.Stderr, "eoloadgen: %s\n", rep.Summary())
	var buf bytes.Buffer
	if err := api.Encode(&buf, rep); err != nil {
		cliutil.Fatalf("eoloadgen: %v", err)
	}
	emit(out, buf.Bytes())
	if rep.Rejected < minRejected {
		cliutil.Fatalf("eoloadgen: %d rejected responses, want >= %d", rep.Rejected, minRejected)
	}
}
