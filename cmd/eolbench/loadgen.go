package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sendFunc sends request i and reports its outcome; a non-nil error is
// a refusal (429), a transport error, a non-2xx status or a response
// that fails its check.
type sendFunc func(ctx context.Context, i int) error

// loadResult is what one load phase measured. Latencies run from each
// request's due time (open loop) or send time (closed loop) to the end
// of its response; each response's wall stretch is the gap since the
// previous response.
type loadResult struct {
	ops     series          // every request, failed ones included
	late    []time.Duration // open loop: how late the generator sent each request
	sent    int
	failed  int
	elapsed time.Duration
	errs    []error // the first few failures

	mu   sync.Mutex
	last time.Time // when the previous response arrived
}

func (r *loadResult) record(d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	r.ops.add(now.Sub(r.last), d)
	r.last = now
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err)
		}
	}
}

// openLoop sends requests first, first+1, ... on a fixed schedule —
// request k of the phase is due at start + k/rate — for d, whatever the
// server's progress, and waits for every response. Each request gets its
// own goroutine at its due time; the client's connection cap makes a
// request wait for a free connection when all are busy, and that wait
// counts in its latency because latency runs from the due time. A
// refused or failed request counts as missing every latency limit: its
// latency is recorded as the phase length.
func openLoop(ctx context.Context, send sendFunc, first int, rate float64, d time.Duration) *loadResult {
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / rate)
	n := int(d / interval)
	start := time.Now()
	res := &loadResult{last: start}
	for k := 0; k < n && ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		res.late = append(res.late, time.Since(due))
		res.sent++
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := send(ctx, i)
			lat := time.Since(due)
			if err != nil {
				lat = d
			}
			res.record(lat, err)
		}(first + k)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// closedLoopHTTP keeps conns clients sending back to back — each client's
// next request leaves when its previous response arrives — for d.
func closedLoopHTTP(ctx context.Context, send sendFunc, first, conns int, d time.Duration) *loadResult {
	var wg sync.WaitGroup
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	res := &loadResult{last: start}
	deadline := start.Add(d)
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				err := send(ctx, i)
				res.record(time.Since(t0), err)
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.sent = len(res.ops.lat)
	return res
}

// post sends body to url and returns the response body of a 2xx reply.
func post(ctx context.Context, client *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}
