package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the boundary: a client call ("op"), one HTTP
// attempt leaving a client ("attempt"), or one request served by a
// node's Handler() ("handler"). Spans of one client request share ID;
// Parent is the Seq of the span that caused this one (0 for a root).
type span struct {
	Seq    uint64 `json:"seq"`
	Parent uint64 `json:"parent,omitempty"`
	ID     uint64 `json:"id,omitempty"`
	Name   string `json:"name"`
	Node   string `json:"node"`
	Path   string `json:"path,omitempty"`
	Origin string `json:"origin,omitempty"` // who sent an attempt: "client" or a node name
	Status int    `json:"status,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while enabled; they are written out when
// the run ends. A disabled tracer records nothing and adds one atomic
// load per boundary crossing.
type tracer struct {
	on     atomic.Bool
	origin time.Time
	seq    atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) next() uint64 { return t.seq.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// writeSpans writes spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceCtx is the request identity carried in a context: the client
// request id, who is sending, and the span that causes the next hop.
type traceCtx struct {
	id     uint64
	origin string
	parent uint64
}

type traceKey struct{}

func withTrace(ctx context.Context, tc traceCtx) context.Context {
	return context.WithValue(ctx, traceKey{}, tc)
}

// traceOf returns the context's traceCtx (the zero value when none).
func traceOf(ctx context.Context) traceCtx {
	tc, _ := ctx.Value(traceKey{}).(traceCtx)
	return tc
}

// Headers that carry a traceCtx across one HTTP hop.
const (
	hdrID     = "X-Perfbench-Id"
	hdrOrigin = "X-Perfbench-Origin"
	hdrParent = "X-Perfbench-Parent"
)

// roundTripper wraps http.DefaultTransport: it stamps the request's
// traceCtx onto the outgoing headers and records one "attempt" span per
// exchange. Every client in the process (the benchmark's, the
// coordinator's, the replication shipper's) uses the default transport,
// so every hop passes through here.
type roundTripper struct {
	t    *tracer
	base http.RoundTripper
}

func (rt roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.t.on.Load() {
		return rt.base.RoundTrip(req)
	}
	seq := rt.t.next()
	tc := traceOf(req.Context())
	req = req.Clone(req.Context())
	if tc.id != 0 {
		req.Header.Set(hdrID, strconv.FormatUint(tc.id, 10))
	}
	if tc.origin != "" {
		req.Header.Set(hdrOrigin, tc.origin)
	}
	req.Header.Set(hdrParent, strconv.FormatUint(seq, 10))
	s := span{Seq: seq, Parent: tc.parent, ID: tc.id, Name: "attempt", Node: req.URL.Host,
		Path: req.URL.Path, Origin: tc.origin, Start: rt.t.now()}
	resp, err := rt.base.RoundTrip(req)
	s.End = rt.t.now()
	if err == nil {
		s.Status = resp.StatusCode
	}
	rt.t.record(s)
	return resp, err
}

// statusWriter captures the status code a handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// wrap returns h wrapped in a "handler" span for node; requests it
// serves carry the caller's id onward in their context, so hops the
// program makes with the request context link to the same request.
func (t *tracer) wrap(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		seq := t.next()
		id, _ := strconv.ParseUint(r.Header.Get(hdrID), 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		s := span{Seq: seq, Parent: parent, ID: id, Name: "handler", Node: node, Path: r.URL.Path,
			Origin: r.Header.Get(hdrOrigin), Start: t.now()}
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r.WithContext(withTrace(r.Context(), traceCtx{id: id, origin: node, parent: seq})))
		s.End = t.now()
		s.Status = sw.status
		if s.Status == 0 {
			s.Status = http.StatusOK
		}
		t.record(s)
	})
}
