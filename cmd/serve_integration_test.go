package cmd_test

import (
	"bytes"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildServeTools builds eolserve and eoloadgen (not in the base tool
// list) into binDir.
func buildServeTools(t *testing.T) {
	t.Helper()
	bin(t, "eolcorpus") // ensure binDir and repoRoot exist
	for _, tool := range []string{"eolserve", "eoloadgen"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "./cmd/"+tool)
		cmd.Dir = repoRoot
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
}

// startServe boots eolserve on an ephemeral port and returns its
// address, the running process and its captured stderr. The caller kills
// the process.
func startServe(t *testing.T) (addr string, srv *exec.Cmd, serverLog *bytes.Buffer) {
	t.Helper()
	buildServeTools(t)
	addrFile := filepath.Join(t.TempDir(), "addr")
	serverLog = &bytes.Buffer{}
	srv = exec.Command(filepath.Join(binDir, "eolserve"), "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	srv.Dir = repoRoot
	srv.Stderr = serverLog
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return strings.TrimSpace(string(b)), srv, serverLog
		}
		time.Sleep(25 * time.Millisecond)
	}
	srv.Process.Kill()
	t.Fatalf("server never published its address:\n%s", serverLog.String())
	return "", nil, nil
}

// TestServeRoundTrip boots eolserve on an ephemeral port and drives it
// with eoloadgen: health probe, corpus request byte-identical to
// eolcorpus batch output, async job with a validated event stream, and
// a clean SIGINT shutdown.
func TestServeRoundTrip(t *testing.T) {
	addr, srv, serverLog := startServe(t)
	defer srv.Process.Kill()
	dir := t.TempDir()
	base := "http://" + addr

	if out, err := runTool(t, "eoloadgen", "-base", base, "-healthz"); err != nil {
		t.Fatalf("healthz: %v\n%s", err, out)
	}

	// The server's corpus response must be byte-identical to batch
	// output for the same manifest.
	serveOut := filepath.Join(dir, "serve.json")
	if out, err := runTool(t, "eoloadgen", "-base", base,
		"-corpus", "testdata/corpus/smoke.json", "-o", serveOut); err != nil {
		t.Fatalf("corpus: %v\n%s", err, out)
	}
	batchOut := filepath.Join(dir, "batch.json")
	if out, code := runExit(t, "eolcorpus", "-o", batchOut, "testdata/corpus/smoke.json"); code != 1 {
		t.Fatalf("eolcorpus exit %d, want 1 (deadline subject fails)\n%s", code, out)
	}
	sb, err := os.ReadFile(serveOut)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(batchOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, bb) {
		t.Errorf("server response differs from batch output:\n--- serve:\n%s\n--- batch:\n%s", sb, bb)
	}

	// Async job: the event stream must be a valid journal (seq-contiguous,
	// balanced spans) and the job must finish with a report.
	events := filepath.Join(dir, "events.jsonl")
	if out, err := runTool(t, "eoloadgen", "-base", base, "-tenant", "jobs",
		"-corpus", "testdata/corpus/smoke.json", "-async", "-events", events,
		"-o", filepath.Join(dir, "job.json")); err != nil {
		t.Fatalf("async: %v\n%s", err, out)
	}
	if fi, err := os.Stat(events); err != nil || fi.Size() == 0 {
		t.Errorf("event stream missing or empty: %v", err)
	}

	// Soak: 30 salted copies of each subject are 150 new programs, after
	// which the server holds its compile cache's bound of 64, so a
	// -max-compiled below the bound fails.
	soak := []string{"-base", base, "-tenant", "soak", "-corpus", "testdata/corpus/smoke.json",
		"-o", filepath.Join(dir, "soak.json")}
	if out, err := runTool(t, "eoloadgen", append(soak, "-salt", "30", "-max-compiled", "64")...); err != nil {
		t.Fatalf("soak: %v\n%s", err, out)
	}
	if out, code := runExit(t, "eoloadgen", append(soak, "-max-compiled", "63")...); code != 1 {
		t.Errorf("-max-compiled 63 after the soak: exit %d, want 1\n%s", code, out)
	}

	// SIGINT drains and exits 0.
	if err := srv.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("unclean shutdown: %v\n%s", err, serverLog.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("shutdown timed out")
	}
}

// TestServeClosesStalledRequest: a client that sends part of a request
// line and then stalls is disconnected once the server's header timeout
// expires, instead of holding the connection for as long as it likes.
func TestServeClosesStalledRequest(t *testing.T) {
	addr, srv, _ := startServe(t)
	defer srv.Process.Kill()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/loc")); err != nil {
		t.Fatal(err)
	}
	// The header timeout is seconds; wait far longer for the close.
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	start := time.Now()
	if _, err := io.ReadAll(conn); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("the server still held a stalled connection after %v", time.Since(start).Round(time.Second))
		}
	}
}
