package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"compaqt"
	"compaqt/client"
	"compaqt/qctrl"
)

// benchStoreDir builds a store directory holding one compiled image
// named "bench" and returns it with the image's wire size.
func benchStoreDir(b *testing.B) (string, int) {
	b.Helper()
	dir := b.TempDir()
	srv, err := New(Config{Parallelism: 1, StoreDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	pulses := testPulses(8, 96)
	specs := make([]client.PulseSpec, len(pulses))
	for i, p := range pulses {
		specs[i] = client.FromPulse(p)
	}
	body, err := json.Marshal(client.BatchRequest{Image: "bench", Pulses: specs})
	if err != nil {
		b.Fatal(err)
	}
	post := newBenchRequester(srv.Handler(), http.MethodPost, "/v1/compile/batch", body)
	if w := post.do(); w.status != http.StatusOK {
		b.Fatalf("populate status %d", w.status)
	}
	get := newBenchRequester(srv.Handler(), http.MethodGet, "/v1/images/bench", nil)
	w := get.do()
	if w.status != http.StatusOK {
		b.Fatalf("populate GET status %d", w.status)
	}
	if err := srv.Close(); err != nil {
		b.Fatal(err)
	}
	return dir, w.n
}

// BenchmarkServerImageGETFromStoreWarm measures GET /v1/images/{name}
// served from the persistent store after a restart: the image index
// is empty, so every request goes manifest-recovered mmap bytes ->
// response writer. The ISSUE target is parity with the in-memory GET
// (<= 1us, <= 4 allocs/op); the gated figure is allocs/op.
func BenchmarkServerImageGETFromStoreWarm(b *testing.B) {
	dir, size := benchStoreDir(b)
	srv, err := New(Config{Parallelism: 1, StoreDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	br := newBenchRequester(srv.Handler(), http.MethodGet, "/v1/images/bench", nil)
	if w := br.do(); w.status != http.StatusOK || w.n != size {
		b.Fatalf("warmup status %d, %d bytes (want %d)", w.status, w.n, size)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := br.do(); w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// BenchmarkServerImageGETFromStoreCold measures the full cold path:
// open the store (manifest scan, object verification, mmap), serve one
// GET, close. This is per-restart cost, not per-request cost.
func BenchmarkServerImageGETFromStoreCold(b *testing.B) {
	dir, size := benchStoreDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := New(Config{Parallelism: 1, StoreDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		br := newBenchRequester(srv.Handler(), http.MethodGet, "/v1/images/bench", nil)
		if w := br.do(); w.status != http.StatusOK || w.n != size {
			b.Fatalf("status %d, %d bytes (want %d)", w.status, w.n, size)
		}
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchResponseWriter is an allocation-free http.ResponseWriter: the
// benchmarks reuse one across iterations so allocs/op counts only the
// server's own per-request churn, not recorder bookkeeping.
type benchResponseWriter struct {
	header http.Header
	status int
	n      int
}

func (w *benchResponseWriter) Header() http.Header { return w.header }

func (w *benchResponseWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func (w *benchResponseWriter) WriteHeader(status int) { w.status = status }

func (w *benchResponseWriter) reset() {
	clear(w.header)
	w.status = 0
	w.n = 0
}

// benchRequester replays one POST body through a handler with a reused
// request, reader and response writer — zero harness allocations at
// steady state.
type benchRequester struct {
	h    http.Handler
	req  *http.Request
	body []byte
	rd   *bytes.Reader
	rc   io.ReadCloser
	w    benchResponseWriter
}

func newBenchRequester(h http.Handler, method, target string, body []byte) *benchRequester {
	br := &benchRequester{h: h, body: body}
	br.rd = bytes.NewReader(body)
	br.rc = io.NopCloser(br.rd)
	br.req = httptest.NewRequest(method, target, nil)
	if body != nil {
		br.req.Header.Set("Content-Type", "application/json")
		br.req.ContentLength = int64(len(body))
	}
	br.w.header = make(http.Header)
	return br
}

func (br *benchRequester) do() *benchResponseWriter {
	if br.body != nil {
		br.rd.Reset(br.body)
		br.req.Body = br.rc
	}
	br.w.reset()
	br.h.ServeHTTP(&br.w, br.req)
	if br.w.status == 0 {
		br.w.status = http.StatusOK
	}
	return &br.w
}

// BenchmarkServerCompileHTTP measures the steady-state single-compile
// request path: the same pulse compiled repeatedly against a warm
// compile cache, driven through the real handler stack (mux, body
// limit, admission, JSON encode). The allocs/op figure is the serving
// layer's per-request heap churn — the codec itself is served from the
// cache, so everything counted here is request plumbing.
func BenchmarkServerCompileHTTP(b *testing.B) {
	srv, err := New(Config{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(client.CompileRequest{
		Pulse: client.FromPulse(testPulse(1, 7, 96)),
	})
	if err != nil {
		b.Fatal(err)
	}
	br := newBenchRequester(srv.Handler(), http.MethodPost, "/v1/compile", body)
	// Warm the compile cache so the loop measures the steady state.
	if w := br.do(); w.status != http.StatusOK {
		b.Fatalf("warmup status %d", w.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := br.do(); w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// BenchmarkServerBatchImageHTTP measures the batch + include_image
// path: serialization and base64 of an unchanged image on every
// request, the worst serving-layer copy amplification.
func BenchmarkServerBatchImageHTTP(b *testing.B) {
	srv, err := New(Config{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	pulses := testPulses(8, 96)
	specs := make([]client.PulseSpec, len(pulses))
	for i, p := range pulses {
		specs[i] = client.FromPulse(p)
	}
	body, err := json.Marshal(client.BatchRequest{
		Image:        "bench",
		Pulses:       specs,
		IncludeImage: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	br := newBenchRequester(srv.Handler(), http.MethodPost, "/v1/compile/batch", body)
	if w := br.do(); w.status != http.StatusOK {
		b.Fatalf("warmup status %d", w.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := br.do(); w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// BenchmarkServerImageGetHTTP measures GET /v1/images/{name} for a
// stored image: the pure read-side serving path.
func BenchmarkServerImageGetHTTP(b *testing.B) {
	srv, err := New(Config{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	pulses := testPulses(8, 96)
	specs := make([]client.PulseSpec, len(pulses))
	for i, p := range pulses {
		specs[i] = client.FromPulse(p)
	}
	body, err := json.Marshal(client.BatchRequest{Image: "bench", Pulses: specs})
	if err != nil {
		b.Fatal(err)
	}
	store := newBenchRequester(srv.Handler(), http.MethodPost, "/v1/compile/batch", body)
	if w := store.do(); w.status != http.StatusOK {
		b.Fatalf("store status %d", w.status)
	}
	br := newBenchRequester(srv.Handler(), http.MethodGet, "/v1/images/bench", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := br.do(); w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

// BenchmarkServerImagePUT measures PUT /v1/images/{name} of a Bogota
// library through the handler: the body read, the validating walk and
// the index insert that replication and peer fills share. The gated
// figure is allocs/op; the image is never decoded.
func BenchmarkServerImagePUT(b *testing.B) {
	svc, err := compaqt.New(compaqt.WithWindow(8))
	if err != nil {
		b.Fatal(err)
	}
	img, err := svc.Compile(context.Background(), qctrl.Bogota())
	if err != nil {
		b.Fatal(err)
	}
	wire, err := img.AppendTo(nil)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	br := newBenchRequester(srv.Handler(), http.MethodPut, "/v1/images/bogota", wire)
	if w := br.do(); w.status != http.StatusNoContent {
		b.Fatalf("warmup status %d", w.status)
	}
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := br.do(); w.status != http.StatusNoContent {
			b.Fatalf("status %d", w.status)
		}
	}
}
