package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eol/internal/interp"
	"eol/internal/obs"
	"eol/internal/trace"
)

// span is one timed interval of a traced localization. Times are
// nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the request's root span
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Value  int64  `json:"value,omitempty"` // the obs End value (steps, entries, ...)
}

// tracer records spans from outside the program: it is an obs.Observer
// that reads its own clock when the locator's span events arrive, and
// timedBackend reports every execution-backend call to it. One request
// (one localization) is traced at a time.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	req   int
	spans []span
	open  []int // stack of open spans of the current request

	fallbacks atomic.Int64 // RunSwitchedFrom calls that found no checkpoint
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span under the innermost open one. t.mu must be held.
func (t *tracer) begin(name string, at int64) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: t.req, Name: name, Start: at})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span called name. t.mu must be held.
func (t *tracer) end(name string, value, at int64) {
	for k := len(t.open) - 1; k >= 0; k-- {
		s := &t.spans[t.open[k]]
		if s.Name == name {
			s.End, s.Value = at, value
			t.open = t.open[:k]
			return
		}
	}
}

// startRequest opens the root span of one localization.
func (t *tracer) startRequest(req int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req, t.spans, t.open = req, nil, nil
	t.begin("request", t.now())
}

// finishRequest closes the root span and returns the request's spans.
func (t *tracer) finishRequest() []span {
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.end("request", 0, at)
	spans := t.spans
	t.spans, t.open = nil, nil
	return spans
}

// Event implements obs.Observer. The recorder serializes calls, and all
// span events come from the locator's own goroutine.
func (t *tracer) Event(e obs.Event) {
	// The vm's interp_run span brackets the same call timedBackend
	// already times; keeping both would make two overlapping siblings.
	if e.Name == "interp_run" || (e.Kind != obs.KindBegin && e.Kind != obs.KindEnd) {
		return
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.Kind == obs.KindBegin {
		t.begin(e.Name, at)
	} else {
		t.end(e.Name, e.Value, at)
	}
}

// call records one finished backend call [start, now) as a child of
// parent, the span that was innermost when the call started. Calls from
// verification workers thereby attach to the open verify_batch span.
func (t *tracer) call(name string, parent int, start int64) {
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: t.req, Name: name, Start: start, End: at})
}

// enter notes the innermost open span and the time at a call's start.
func (t *tracer) enter() (parent int, start int64) {
	start = t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent = -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	return parent, start
}

// timedBackend wraps an execution backend and reports every Run and
// RunSwitchedFrom call to a tracer: "vm.run" for plain runs (the failing
// run), "vm.full_switched" for switched runs replayed from the start and
// "vm.fork" for switched runs forked from a checkpoint. Name and
// NewCheckpoints pass through, so run-cache keys and checkpoint stores
// are the wrapped backend's own.
type timedBackend struct {
	interp.Backend
	t *tracer
}

func (b timedBackend) Run(c *interp.Compiled, opts interp.Options) *interp.Result {
	name := "vm.run"
	if opts.Switch != nil {
		name = "vm.full_switched"
	}
	parent, start := b.t.enter()
	r := b.Backend.Run(c, opts)
	b.t.call(name, parent, start)
	return r
}

func (b timedBackend) RunSwitchedFrom(cks interp.Checkpoints, orig *trace.Trace, c *interp.Compiled, opts interp.Options) *interp.Result {
	parent, start := b.t.enter()
	r := b.Backend.RunSwitchedFrom(cks, orig, c, opts)
	if r == nil {
		b.t.fallbacks.Add(1)
		return nil
	}
	b.t.call("vm.fork", parent, start)
	return r
}

// selfTimes attributes every instant of a request to the deepest spans
// open at that instant, split evenly when several overlap (vm calls on
// parallel verification workers). For properly nested spans this is a
// span's duration minus the union of its children; over one request the
// self times sum to the root span's duration. spans must list parents
// before their children, as the tracer records them.
func selfTimes(spans []span) []float64 {
	depth := make([]int, len(spans))
	var pts []int64
	for i, s := range spans {
		if s.Parent >= 0 {
			depth[i] = depth[s.Parent] + 1
		}
		pts = append(pts, s.Start, s.End)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	self := make([]float64, len(spans))
	var deepest []int
	for k := 0; k+1 < len(pts); k++ {
		a, b := pts[k], pts[k+1]
		if a == b {
			continue
		}
		deepest = deepest[:0]
		best := -1
		for i, s := range spans {
			if s.Start > a || s.End < b {
				continue
			}
			if depth[i] > best {
				deepest = deepest[:0]
				best = depth[i]
			}
			if depth[i] == best {
				deepest = append(deepest, i)
			}
		}
		for _, i := range deepest {
			self[i] += float64(b-a) / float64(len(deepest))
		}
	}
	return self
}

// unionLen is the total length covered by the intervals of spans.
func unionLen(spans []span) int64 {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total, curS, curE int64
	for i, x := range s {
		if i == 0 || x.Start > curE {
			total += curE - curS
			curS, curE = x.Start, x.End
		} else if x.End > curE {
			curE = x.End
		}
	}
	return total + curE - curS
}
