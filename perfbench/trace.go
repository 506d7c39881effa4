package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. A request's spans nest client.call > server.handler >
// cluster.peer_hop > server.handler (the owner's, on a forward).
const (
	spanClient  = "client.call"
	spanHandler = "server.handler"
	spanPeerHop = "cluster.peer_hop"
)

// Headers the benchmark's transports stamp so the wrapped handlers can
// attach their spans to the calling request.
const (
	hdrTrace  = "X-Perfbench-Trace"
	hdrParent = "X-Perfbench-Parent"
)

// span is one timed section of one traced request. Every span of a
// request shares its Trace ID; Parent is the enclosing span's ID.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps every span in memory until dump writes them out. It
// also counts the load generator's wire bytes and the peer image GETs
// (hedges and retries included) the cluster transport carries.
type tracer struct {
	t0     time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []*span
	reqB   atomic.Int64
	respB  atomic.Int64
	peerGs atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanKey struct{}

// spanRef is what a context carries: the trace and the current span.
type spanRef struct{ trace, id uint64 }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) start(trace, parent uint64, name string) *span {
	return &span{Trace: trace, ID: t.ids.Add(1), Parent: parent, Name: name, Start: t.now()}
}

func (t *tracer) end(s *span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// startRequest opens a new trace with its client-call root span.
func (t *tracer) startRequest(ctx context.Context) (context.Context, *span) {
	id := t.ids.Add(1)
	s := &span{Trace: id, ID: id, Name: spanClient, Start: t.now()}
	return context.WithValue(ctx, spanKey{}, spanRef{id, id}), s
}

func refOf(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanKey{}).(spanRef)
	return r, ok
}

func stamp(req *http.Request, ref spanRef) *http.Request {
	req = req.Clone(req.Context())
	req.Header.Set(hdrTrace, strconv.FormatUint(ref.trace, 10))
	req.Header.Set(hdrParent, strconv.FormatUint(ref.id, 10))
	return req
}

// clientTransport stamps the load generator's requests with their trace
// and counts the bytes each way.
func (t *tracer) clientTransport(inner http.RoundTripper) http.RoundTripper {
	return rtFunc(func(req *http.Request) (*http.Response, error) {
		ref, ok := refOf(req.Context())
		if !ok {
			return inner.RoundTrip(req)
		}
		if req.ContentLength > 0 {
			t.reqB.Add(req.ContentLength)
		}
		res, err := inner.RoundTrip(stamp(req, ref))
		if err == nil {
			res.Body = &countingBody{ReadCloser: res.Body, n: &t.respB}
		}
		return res, err
	})
}

// peerTransport is the cluster.Config.Transport of traced nodes: each
// peer image GET made on behalf of a traced request becomes a
// cluster.peer_hop span, parented through the request context, that
// ends when the body has been read.
func (t *tracer) peerTransport() http.RoundTripper {
	inner := http.DefaultTransport.(*http.Transport).Clone()
	return rtFunc(func(req *http.Request) (*http.Response, error) {
		ref, ok := refOf(req.Context())
		if !ok || req.Method != http.MethodGet || !strings.HasPrefix(req.URL.Path, "/v1/images/") {
			return inner.RoundTrip(req)
		}
		t.peerGs.Add(1)
		s := t.start(ref.trace, ref.id, spanPeerHop)
		res, err := inner.RoundTrip(stamp(req, spanRef{ref.trace, s.ID}))
		if err != nil {
			t.end(s)
			return nil, err
		}
		res.Body = &spanBody{ReadCloser: res.Body, t: t, s: s}
		return res, nil
	})
}

// wrapHandler times every traced request a node serves as a
// server.handler span and hands the span to the request context, so
// peer hops made while serving it nest under it.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, err1 := strconv.ParseUint(r.Header.Get(hdrTrace), 10, 64)
		parent, err2 := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		if err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		s := t.start(trace, parent, spanHandler)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{trace, s.ID})))
		t.end(s)
	})
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestTimes splits the traced requests into per-layer times, one
// value per request: the client call, the entry node's handler, and
// the wall time the handler spent in peer hops.
type requestTimes struct{ call, handler, hop []float64 }

func (t *tracer) requestTimes() requestTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	type req struct {
		call, handler    *span
		hopStart, hopEnd int64
		hops             int
	}
	byTrace := map[uint64]*req{}
	get := func(id uint64) *req {
		r := byTrace[id]
		if r == nil {
			r = &req{}
			byTrace[id] = r
		}
		return r
	}
	for _, s := range t.spans {
		if s.Name == spanClient {
			get(s.Trace).call = s
		}
	}
	for _, s := range t.spans {
		r := get(s.Trace)
		switch {
		case s.Name == spanHandler && r.call != nil && s.Parent == r.call.ID:
			r.handler = s
		case s.Name == spanPeerHop:
			if r.hops == 0 || s.Start < r.hopStart {
				r.hopStart = s.Start
			}
			r.hopEnd = max(r.hopEnd, s.End)
			r.hops++
		}
	}
	var rt requestTimes
	for _, r := range byTrace {
		if r.call == nil || r.handler == nil {
			continue
		}
		rt.call = append(rt.call, r.call.ms())
		rt.handler = append(rt.handler, r.handler.ms())
		hop := 0.0
		if r.hops > 0 {
			hop = float64(r.hopEnd-r.hopStart) / 1e6
		}
		rt.hop = append(rt.hop, hop)
	}
	return rt
}

type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// spanBody ends its span at the first EOF, error or Close.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    *span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(func() { b.t.end(b.s) })
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(func() { b.t.end(b.s) })
	return b.ReadCloser.Close()
}
