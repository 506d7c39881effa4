package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"compaqt/client"
	"compaqt/internal/race"
	"compaqt/qctrl"
)

// TestDerivedServiceLRUEviction pins the override-memoization policy:
// the map stays capped, the 65th (cap+1'th) distinct fingerprint still
// compiles, and eviction is least-recently-used — a fingerprint in
// active use survives while the stalest one goes.
func TestDerivedServiceLRUEviction(t *testing.T) {
	srv, _, cl := newTestServer(t, Config{})
	ctx := context.Background()
	spec := client.FromPulse(testPulse(0, 9, 32))

	optKey := func(o *client.CompileOptions) string {
		return fmt.Sprintf("%s|%d|%g|%g|%g|%s", o.Codec, o.Window, o.Threshold, o.FidelityTarget, o.MSETarget, "-")
	}
	opt := func(i int) *client.CompileOptions {
		return &client.CompileOptions{Threshold: float64(i+1) / 1024}
	}

	hot := opt(0)
	for i := 0; i < maxDerived+8; i++ {
		if _, err := cl.Compile(ctx, client.CompileRequest{Pulse: spec, Options: opt(i)}); err != nil {
			t.Fatalf("fingerprint %d: %v", i, err)
		}
		// Keep fingerprint 0 hot so LRU (not FIFO, not wholesale reset)
		// must be what retains it.
		if _, err := cl.Compile(ctx, client.CompileRequest{Pulse: spec, Options: hot}); err != nil {
			t.Fatalf("hot fingerprint after %d: %v", i, err)
		}
	}

	srv.derivedMu.Lock()
	n := len(srv.derived)
	_, hotAlive := srv.derived[optKey(hot)]
	_, staleAlive := srv.derived[optKey(opt(1))]
	srv.derivedMu.Unlock()
	if n > maxDerived {
		t.Errorf("derived service map grew to %d, cap is %d", n, maxDerived)
	}
	if !hotAlive {
		t.Error("recently used fingerprint was evicted; eviction is not LRU")
	}
	if staleAlive {
		t.Error("stalest fingerprint survived past the cap; eviction is not LRU")
	}
}

// failingWriter errors on every write, as a disconnected client does.
type failingWriter struct {
	header http.Header
	status int
}

func (w *failingWriter) Header() http.Header       { return w.header }
func (w *failingWriter) Write([]byte) (int, error) { return 0, errors.New("client went away") }
func (w *failingWriter) WriteHeader(s int)         { w.status = s }

// TestWriteErrorsCounted: response write and encode failures must land
// in the write_errors stat instead of vanishing.
func TestWriteErrorsCounted(t *testing.T) {
	srv, _, cl := newTestServer(t, Config{})
	ctx := context.Background()

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	srv.Handler().ServeHTTP(&failingWriter{header: http.Header{}}, req)
	if got := srv.m.writeErrors.Load(); got != 1 {
		t.Fatalf("write_errors = %d after a failed response write, want 1", got)
	}

	// Encode failures (a server bug by construction) count too.
	rec := httptest.NewRecorder()
	srv.writeJSON(rec, http.StatusOK, make(chan int))
	if got := srv.m.writeErrors.Load(); got != 2 {
		t.Fatalf("write_errors = %d after an encode failure, want 2", got)
	}
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("encode failure returned status %d, want 500", rec.Code)
	}

	// The counter reaches clients through GET /v1/stats.
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests.WriteErrors != 2 {
		t.Errorf("stats write_errors = %d, want 2", st.Requests.WriteErrors)
	}
}

// TestImageBytesStableAcrossCachedServes: the image index must serve
// exactly the bytes a fresh serialization would, for both the raw
// image endpoint and the base64 batch form, across repeats and across
// an image being replaced under the same name.
func TestImageBytesStableAcrossCachedServes(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})
	ctx := context.Background()

	build := func(seed int) client.BatchRequest {
		pulses := testPulses(4, 64)
		for _, p := range pulses {
			p.Qubit += seed // distinct content per seed
		}
		specs := make([]client.PulseSpec, len(pulses))
		for i, p := range pulses {
			specs[i] = client.FromPulse(p)
		}
		return client.BatchRequest{Image: "lib", Pulses: specs, IncludeImage: true}
	}

	first, err := cl.CompileBatch(ctx, build(0))
	if err != nil {
		t.Fatal(err)
	}
	firstWire, err := base64.StdEncoding.DecodeString(first.ImageB64)
	if err != nil {
		t.Fatal(err)
	}
	// Repeats of identical content must return identical payloads, and
	// the raw endpoint must stream the same bytes the base64 encodes.
	for i := 0; i < 3; i++ {
		again, err := cl.CompileBatch(ctx, build(0))
		if err != nil {
			t.Fatal(err)
		}
		if again.ImageB64 != first.ImageB64 {
			t.Fatal("cached ImageB64 differs from the first serialization")
		}
		raw, err := cl.ImageRaw(ctx, "lib")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, firstWire) {
			t.Fatal("GET /v1/images bytes differ from the batch ImageB64 bytes")
		}
		img, err := cl.Image(ctx, "lib")
		if err != nil {
			t.Fatal(err)
		}
		if len(img.Entries) != 4 {
			t.Fatalf("served image has %d entries, want 4", len(img.Entries))
		}
	}

	// Replacing the stored image under the same name must invalidate
	// what GET serves (the digest changes with the content).
	replaced, err := cl.CompileBatch(ctx, build(3))
	if err != nil {
		t.Fatal(err)
	}
	if replaced.ImageB64 == first.ImageB64 {
		t.Fatal("distinct batches produced identical ImageB64")
	}
	raw, err := cl.ImageRaw(ctx, "lib")
	if err != nil {
		t.Fatal(err)
	}
	wantWire, err := base64.StdEncoding.DecodeString(replaced.ImageB64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, wantWire) {
		t.Fatal("GET /v1/images serves stale bytes after the stored image was replaced")
	}
}

// TestServerCompileSteadyStateAllocs guards the serving path's heap
// discipline: a warm single-pulse compile request must stay within a
// small allocation budget end to end (mux, decode, compile-cache hit,
// encode). The bound has ~2x headroom over the measured steady state
// so it catches regressions, not noise.
func TestServerCompileSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("-race randomizes sync.Pool reuse; allocation counts only hold in normal builds")
	}
	srv, err := New(Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(client.CompileRequest{Pulse: client.FromPulse(testPulse(1, 7, 96))})
	if err != nil {
		t.Fatal(err)
	}
	br := newBenchRequester(srv.Handler(), http.MethodPost, "/v1/compile", body)
	for i := 0; i < 3; i++ { // warm cache and pools
		if w := br.do(); w.status != http.StatusOK {
			t.Fatalf("warmup status %d", w.status)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if w := br.do(); w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	})
	const budget = 24 // measured ~11 at introduction
	if allocs > budget {
		t.Errorf("steady-state compile request allocates %.1f/op, budget %d", allocs, budget)
	}
}

// TestServerBatchSteadyStateAllocs guards the batch path likewise: a
// warm 8-pulse batch served from the compile cache decodes into pooled
// scratch (pulse list, I/Q arrays, in-process pulses), so what is left
// per request is CompileBatch's own bookkeeping and the per-pulse key
// strings. The budget is ~2x the measured steady state. The repeating
// case plays four pulses twice, each repeat with arrays of its own, as
// a scheduled circuit does; its repeats are copied from the arrays
// already decoded, through a pooled table, at the same budget.
func TestServerBatchSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("-race randomizes sync.Pool reuse; allocation counts only hold in normal builds")
	}
	distinct := testPulses(8, 96)
	repeating := append(testPulses(4, 96), testPulses(4, 96)...)
	for _, c := range []struct {
		name   string
		pulses []*qctrl.Pulse
	}{{"distinct", distinct}, {"repeating", repeating}} {
		t.Run(c.name, func(t *testing.T) {
			srv, err := New(Config{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			specs := make([]client.PulseSpec, len(c.pulses))
			for i, p := range c.pulses {
				specs[i] = client.FromPulse(p)
			}
			body, err := json.Marshal(client.BatchRequest{Pulses: specs})
			if err != nil {
				t.Fatal(err)
			}
			br := newBenchRequester(srv.Handler(), http.MethodPost, "/v1/compile/batch", body)
			for i := 0; i < 3; i++ { // warm cache and pools
				if w := br.do(); w.status != http.StatusOK {
					t.Fatalf("warmup status %d", w.status)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if w := br.do(); w.status != http.StatusOK {
					t.Fatalf("status %d", w.status)
				}
			})
			// Measured 51 at introduction, and 51 in both cases when
			// repeats began to be copied, as on their parent.
			const budget = 100
			t.Logf("%.1f allocs/op", allocs)
			if allocs > budget {
				t.Errorf("steady-state batch request allocates %.1f/op, budget %d", allocs, budget)
			}
		})
	}
}
