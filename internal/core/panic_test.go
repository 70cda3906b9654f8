package core_test

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"eol/internal/backend"
	"eol/internal/bench"
	"eol/internal/core"
	"eol/internal/interp"
	"eol/internal/trace"
)

// panicBackend is the VM with a checkpointed switched run that panics,
// recording whether it panicked off the goroutine that called Locate.
type panicBackend struct {
	interp.Backend
	caller   uint64
	onWorker atomic.Bool
}

func (b *panicBackend) RunSwitchedFrom(interp.Checkpoints, *trace.Trace, *interp.Compiled, interp.Options) *interp.Result {
	b.onWorker.Store(goroutineID() != b.caller)
	panic("injected switched-run fault")
}

// goroutineID parses the running goroutine's id from its stack header.
func goroutineID() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	var id uint64
	for _, c := range buf {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// TestWorkerPanicReachesCaller: a switched run that panics on a
// verification worker is re-raised on LocateContext's caller, where it
// can be recovered, and the worker pool drains without leaking a
// goroutine. With one worker it panics on the caller's goroutine itself.
// The gzip case's first verification batch holds six switched runs, so
// four workers run them in parallel.
func TestWorkerPanicReachesCaller(t *testing.T) {
	c := bench.ByName("gzipsim/V2-F3")
	if c == nil {
		t.Fatal("unknown case gzipsim/V2-F3")
	}
	p, err := c.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		spec := p.Spec()
		spec.VerifyWorkers = workers
		b := &panicBackend{Backend: backend.Default(), caller: goroutineID()}
		spec.Backend = b
		got := func() (v any) {
			defer func() { v = recover() }()
			core.LocateContext(nil, spec)
			return nil
		}()
		if got != "injected switched-run fault" {
			t.Fatalf("workers=%d: recovered %v, want the injected panic", workers, got)
		}
		if want := workers > 1; b.onWorker.Load() != want {
			t.Errorf("workers=%d: panicked on a worker goroutine = %v, want %v", workers, b.onWorker.Load(), want)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: goroutines: %d before, %d after the panic", workers, before, runtime.NumGoroutine())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
