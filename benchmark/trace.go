package main

import (
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autotune/internal/stats"
	"autotune/internal/studystore"
)

// trace.go is the span recorder of the traced run, the HTTP handler that
// wraps server.Server with a server.handle span, and the timing wrapper
// over studystore.FS. Every span is recorded from this directory, around
// a call into a layer's public function; spans inside the program are
// ROADMAP item 1's next step.

// span is one timed interval. Start and End are nanoseconds since the
// trace began; Parent is the ID of the span that caused this one (0 for
// a root) and Req the request all spans of one request share.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"` // suggest or observe
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. The client goroutine
// and the server's handler goroutine both record, hence the mutex.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	handler map[int64]int // request -> its server.handle span
	client  map[int64]int // request -> its client span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), handler: map[int64]int{}, client: map[int64]int{}}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name, op string, parent int, req int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Op: op})
	switch name {
	case "client.request":
		t.client[req] = id
	case "server.handle":
		t.handler[req] = id
	}
	// The clock is read last so that the recorder's own bookkeeping is
	// outside the interval.
	t.spans[id-1].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span that has just finished and took d.
func (t *tracer) add(name, op string, parent int, req int64, d time.Duration) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Op: op, Start: now - int64(d), End: now})
}

func (t *tracer) handlerOf(req int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.handler[req]
}

func (t *tracer) clientOf(req int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.client[req]
}

// selfTime is a span's duration minus its children's. The shadow spans
// (studystore.append, optimizer.*) run right after the request they
// mirror rather than inside it, so "children" means spans whose Parent
// is this span, not spans inside its interval.
func selfTime(s span, children []span) time.Duration {
	d := s.dur()
	for _, c := range children {
		d -= c.dur()
	}
	return d
}

// spanTable indexes a finished trace.
type spanTable struct {
	spans    []span
	children map[int][]span
}

func (t *tracer) table() spanTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	tb := spanTable{spans: append([]span(nil), t.spans...), children: map[int][]span{}}
	for _, s := range tb.spans {
		if s.Parent != 0 {
			tb.children[s.Parent] = append(tb.children[s.Parent], s)
		}
	}
	return tb
}

// durations returns, in microseconds, f of every span with the name and
// op ("" matches any op).
func (tb spanTable) durations(name, op string, f func(span) time.Duration) []float64 {
	var out []float64
	for _, s := range tb.spans {
		if s.Name == name && (op == "" || s.Op == op) {
			out = append(out, float64(f(s))/float64(time.Microsecond))
		}
	}
	return out
}

func (tb spanTable) dur(name, op string) []float64 {
	return tb.durations(name, op, span.dur)
}

func (tb spanTable) self(name, op string) []float64 {
	return tb.durations(name, op, func(s span) time.Duration { return selfTime(s, tb.children[s.ID]) })
}

// childSum is, per span of the name and op, the summed duration of its
// children: what the shadow layers account for.
func (tb spanTable) childSum(name, op string) []float64 {
	return tb.durations(name, op, func(s span) time.Duration { return s.dur() - selfTime(s, tb.children[s.ID]) })
}

// writeFile writes the trace as one JSON document.
func (tb spanTable) writeFile(path, workload string, seed int64) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Unit     string `json:"unit"`
		Spans    []span `json:"spans"`
	}{workload, seed, "ns since the trace began", tb.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// reqHeader carries the request's trace ID to the handler.
const reqHeader = "X-Bench-Req"

// stampTransport adds the current request ID to outgoing requests. The
// traced run has one client goroutine, so a plain field is enough: it
// is set before the call and RoundTrip runs on the caller's goroutine.
type stampTransport struct {
	next http.RoundTripper
	cur  int64 // 0: do not trace this request
}

func (t *stampTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.cur != 0 {
		r.Header.Set(reqHeader, strconv.FormatInt(t.cur, 10))
	}
	return t.next.RoundTrip(r)
}

// traceHandler wraps the daemon's handler. For a stamped request it
// records a server.handle span and the response's length; in allocation
// mode it instead records how many heap objects the handler allocated.
type traceHandler struct {
	next   http.Handler
	tr     *tracer
	allocs atomic.Bool // count mallocs instead of recording spans

	mu        sync.Mutex
	respBytes map[string][]float64 // op -> response body lengths
	mallocs   map[string][]float64 // op -> heap objects allocated per request
}

func opOf(path string) string {
	switch {
	case strings.HasSuffix(path, "/suggest"):
		return "suggest"
	case strings.HasSuffix(path, "/observe"):
		return "observe"
	}
	return "other"
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

func (h *traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	if req == 0 {
		h.next.ServeHTTP(w, r)
		return
	}
	op := opOf(r.URL.Path)
	if h.allocs.Load() {
		// Single client, nothing else running: the process-wide malloc
		// count moves only because of this handler, so the delta is the
		// handler's own and repeats exactly.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.next.ServeHTTP(w, r)
		runtime.ReadMemStats(&after)
		h.mu.Lock()
		h.mallocs[op] = append(h.mallocs[op], float64(after.Mallocs-before.Mallocs))
		h.mu.Unlock()
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	id := h.tr.begin("server.handle", op, h.tr.clientOf(req), req)
	h.next.ServeHTTP(cw, r)
	h.tr.end(id)
	h.mu.Lock()
	h.respBytes[op] = append(h.respBytes[op], float64(cw.n))
	h.mu.Unlock()
}

// timingFS wraps a studystore.FS and reports how long every file write
// and fsync took. Bytes and errors pass through unchanged.
type timingFS struct {
	studystore.FS
	onWrite func(d time.Duration, n int)
	onSync  func(d time.Duration)
}

func (fs *timingFS) Create(name string) (studystore.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: fs}, nil
}

func (fs *timingFS) OpenAppend(name string) (studystore.File, error) {
	f, err := fs.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: fs}, nil
}

type timingFile struct {
	studystore.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.fs.onWrite(time.Since(t0), n)
	return n, err
}

func (f *timingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.onSync(time.Since(t0))
	return err
}

// medianOr0 is the median of xs, or 0 when the layer did no work on this
// workload (a per-layer metric must still be printed).
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}
