package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"compaqt"
	"compaqt/client"
	"compaqt/codec"
	"compaqt/qctrl"
	"compaqt/waveform"
)

// testPulse builds a deterministic synthetic pulse: an LCG-driven
// envelope of exact binary fractions (k/1024), so compiles are
// byte-reproducible across runs, platforms and parallelism.
func testPulse(qubit, seed, samples int) *qctrl.Pulse {
	iCh := make([]float64, samples)
	qCh := make([]float64, samples)
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func() float64 {
		state = state*2862933555777941757 + 3037000493
		return float64(int64(state>>40)%1024) / 1024
	}
	for i := range iCh {
		iCh[i] = next()
		qCh[i] = next()
	}
	p := &qctrl.Pulse{
		Gate:   "X",
		Qubit:  qubit,
		Target: -1,
		Waveform: &waveform.Waveform{
			SampleRate: 4.5e9,
			I:          iCh,
			Q:          qCh,
		},
	}
	p.Waveform.Name = p.Key()
	return p
}

// testPulses builds n distinct deterministic pulses.
func testPulses(n, samples int) []*qctrl.Pulse {
	ps := make([]*qctrl.Pulse, n)
	for i := range ps {
		ps[i] = testPulse(i, i+1, samples)
	}
	return ps
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *client.Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() { srv.Close() })
	return srv, hs, client.New(hs.URL)
}

func TestHealthAndStats(t *testing.T) {
	srv, _, cl := newTestServer(t, Config{})
	ctx := context.Background()
	if err := cl.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Codec != "intdct-w" {
		t.Errorf("default codec = %q, want intdct-w", st.Codec)
	}
	if len(st.Codecs) < 5 {
		t.Errorf("registry lists %d codecs, want >= 5", len(st.Codecs))
	}
	// Draining flips /healthz to 503.
	srv.draining.Store(true)
	err = cl.Health(ctx)
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining health = %v, want 503", err)
	}
}

func asAPIError(err error, target **client.APIError) bool {
	e, ok := err.(*client.APIError)
	if ok {
		*target = e
	}
	return ok
}

func TestCompileSingleMatchesInProcess(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})
	ctx := context.Background()
	p := testPulse(3, 7, 96)

	resp, err := cl.Compile(ctx, client.CompileRequest{Pulse: client.FromPulse(p)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Entry.Key != "X_q3" {
		t.Errorf("entry key = %q, want X_q3", resp.Entry.Key)
	}
	if resp.Entry.Samples != 96 {
		t.Errorf("entry samples = %d, want 96", resp.Entry.Samples)
	}

	svc, err := compaqt.New()
	if err != nil {
		t.Fatal(err)
	}
	img, err := svc.CompilePulses(ctx, "ref", []*qctrl.Pulse{p})
	if err != nil {
		t.Fatal(err)
	}
	c := img.Entries[0].Compressed
	if resp.Entry.PackedWords != c.Words(codec.LayoutPacked) {
		t.Errorf("packed words = %d, want %d", resp.Entry.PackedWords, c.Words(codec.LayoutPacked))
	}
	if resp.Entry.OriginalWords != c.OriginalWords() {
		t.Errorf("original words = %d, want %d", resp.Entry.OriginalWords, c.OriginalWords())
	}
}

func TestBatchByteIdenticalToInProcess(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})
	ctx := context.Background()
	// Distinct pulses plus in-batch duplicates: dedup must not change
	// the wire bytes.
	pulses := testPulses(12, 96)
	pulses = append(pulses, pulses[0], pulses[5], pulses[11])

	specs := make([]client.PulseSpec, len(pulses))
	for i, p := range pulses {
		specs[i] = client.FromPulse(p)
	}
	resp, err := cl.CompileBatch(ctx, client.BatchRequest{
		Image:        "lib",
		Pulses:       specs,
		IncludeImage: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Entries) != len(pulses) {
		t.Fatalf("got %d entries, want %d", len(resp.Entries), len(pulses))
	}
	for i, e := range resp.Entries {
		if e.Key != pulses[i].Key() {
			t.Errorf("entry %d key = %q, want %q (order must be stable)", i, e.Key, pulses[i].Key())
		}
	}

	svc, err := compaqt.New()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := svc.CompileBatch(ctx, "lib", pulses)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := ref.WriteTo(&want); err != nil {
		t.Fatal(err)
	}

	got, err := base64.StdEncoding.DecodeString(resp.ImageB64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("batch response image differs from in-process Service.CompileBatch bytes")
	}

	// The stored image must stream the same bytes.
	raw, err := cl.ImageRaw(ctx, "lib")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Error("GET /v1/images bytes differ from in-process compile")
	}

	// And deserialize into a playable image.
	img, err := cl.Image(ctx, "lib")
	if err != nil {
		t.Fatal(err)
	}
	play, err := compaqt.New()
	if err != nil {
		t.Fatal(err)
	}
	play.Use(img)
	if _, _, err := play.Play(ctx, "X_q5"); err != nil {
		t.Fatalf("playback of fetched image: %v", err)
	}
}

func TestPerRequestOverrides(t *testing.T) {
	_, _, cl := newTestServer(t, Config{})
	ctx := context.Background()
	spec := client.FromPulse(testPulse(0, 3, 96))

	// A valid override switches codecs for this request only.
	resp, err := cl.Compile(ctx, client.CompileRequest{
		Pulse:   spec,
		Options: &client.CompileOptions{Codec: "delta"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Codec != "delta" {
		t.Errorf("override codec = %q, want delta", resp.Codec)
	}
	if resp.Entry.WindowSize != 0 {
		t.Errorf("delta entry window = %d, want 0", resp.Entry.WindowSize)
	}

	// Window override on the default codec.
	resp, err = cl.Compile(ctx, client.CompileRequest{
		Pulse:   spec,
		Options: &client.CompileOptions{Window: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Entry.WindowSize != 8 {
		t.Errorf("window override entry window = %d, want 8", resp.Entry.WindowSize)
	}

	// Fidelity-target override runs Algorithm 1.
	if _, err = cl.Compile(ctx, client.CompileRequest{
		Pulse:   spec,
		Options: &client.CompileOptions{MSETarget: 5e-6},
	}); err != nil {
		t.Fatal(err)
	}

	var apiErr *client.APIError
	for name, opts := range map[string]*client.CompileOptions{
		"unknown codec":  {Codec: "no-such-codec"},
		"bad window":     {Window: 7},
		"bad threshold":  {Threshold: 1.5},
		"window on dict": {Codec: "dict", Window: 16},
		"mse on delta":   {Codec: "delta", MSETarget: 1e-6},
	} {
		_, err := cl.Compile(ctx, client.CompileRequest{Pulse: spec, Options: opts})
		if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want 400", name, err)
		}
	}
	// The registry is named in the unknown-codec message.
	_, err = cl.Compile(ctx, client.CompileRequest{
		Pulse:   spec,
		Options: &client.CompileOptions{Codec: "no-such-codec"},
	})
	if asAPIError(err, &apiErr) && !strings.Contains(apiErr.Message, "intdct-w") {
		t.Errorf("unknown-codec error %q does not list the registry", apiErr.Message)
	}

	// include_image with a non-wire codec is a clean 400, not a 500.
	_, err = cl.CompileBatch(ctx, client.BatchRequest{
		Pulses:       []client.PulseSpec{spec},
		Options:      &client.CompileOptions{Codec: "delta"},
		IncludeImage: true,
	})
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("include_image with delta: err = %v, want 400", err)
	}
}

// TestOverridesOverlayServerDefaults pins the overlay semantics:
// unset override fields inherit the server's configured defaults while
// the codec is unchanged, and drop to the new codec's own defaults
// when it changes.
func TestOverridesOverlayServerDefaults(t *testing.T) {
	_, _, cl := newTestServer(t, Config{Window: 8})
	ctx := context.Background()
	spec := client.FromPulse(testPulse(0, 11, 96))

	// Overriding only the threshold keeps the server's window 8.
	resp, err := cl.Compile(ctx, client.CompileRequest{
		Pulse:   spec,
		Options: &client.CompileOptions{Threshold: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Entry.WindowSize != 8 {
		t.Errorf("threshold-only override compiled with window %d, want the server default 8", resp.Entry.WindowSize)
	}

	// Switching to a codec family of its own drops the inherited
	// window: dct-w without an explicit window uses its default (16).
	resp, err = cl.Compile(ctx, client.CompileRequest{
		Pulse:   spec,
		Options: &client.CompileOptions{Codec: "dct-w"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Entry.WindowSize != 16 {
		t.Errorf("codec override compiled with window %d, want the codec default 16", resp.Entry.WindowSize)
	}

	// Switching to a non-windowed codec must not inherit the window at
	// all (it would be rejected as invalid).
	if _, err := cl.Compile(ctx, client.CompileRequest{
		Pulse:   spec,
		Options: &client.CompileOptions{Codec: "delta"},
	}); err != nil {
		t.Errorf("delta override under a windowed server default: %v", err)
	}

	// A server-level MSE target is inherited by same-codec overrides...
	srv2, _, cl2 := newTestServer(t, Config{MSETarget: 5e-6})
	if _, err := cl2.Compile(ctx, client.CompileRequest{
		Pulse:   spec,
		Options: &client.CompileOptions{Window: 8},
	}); err != nil {
		t.Fatal(err)
	}
	// ...and replaced wholesale when the client sets a fidelity knob.
	if _, err := cl2.Compile(ctx, client.CompileRequest{
		Pulse:   spec,
		Options: &client.CompileOptions{Threshold: 0.02},
	}); err != nil {
		t.Fatal(err)
	}
	_ = srv2
}

func TestRequestValidation(t *testing.T) {
	_, hs, cl := newTestServer(t, Config{MaxBodyBytes: 2048, MaxBatchPulses: 4})
	ctx := context.Background()
	var apiErr *client.APIError

	// Bodies encoding/json rejects, so the request codec must too: each
	// as a single compile and as a batch. The valid body is the control.
	post := func(path, body string) int {
		t.Helper()
		res, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		return res.StatusCode
	}
	pulse := func(qubit, i string) string {
		return `{"gate":"X","qubit":` + qubit + `,"target":-1,"sample_rate":1e9,"i":[` + i + `],"q":[0.5]}`
	}
	for name, p := range map[string]string{
		"valid":              pulse("1", "0.5"),
		"NaN sample":         pulse("1", "NaN"),
		"Infinity sample":    pulse("1", "Infinity"),
		"hex float sample":   pulse("1", "0x1p3"),
		"fractional qubit":   pulse("1.5", "0.5"),
		"unterminated array": `{"gate":"X","qubit":1,"target":-1,"sample_rate":1e9,"i":[0.5,`,
		"malformed":          `{nope`,
	} {
		want := http.StatusBadRequest
		if name == "valid" {
			want = http.StatusOK
		}
		for path, body := range map[string]string{
			"/v1/compile":       `{"pulse":` + p + `}`,
			"/v1/compile/batch": `{"pulses":[` + p + `]}`,
		} {
			if got := post(path, body); got != want {
				t.Errorf("%s %s: status %d, want %d", name, path, got, want)
			}
			if name == "valid" {
				if got := post(path, body+` x`); got != http.StatusBadRequest {
					t.Errorf("trailing garbage %s: status %d, want 400", path, got)
				}
			}
		}
	}

	// Structurally invalid pulses.
	for name, spec := range map[string]client.PulseSpec{
		"no gate":        {Qubit: 0, Target: -1, SampleRate: 1e9, I: []float64{0.5}, Q: []float64{0.5}},
		"no samples":     {Gate: "X", Target: -1, SampleRate: 1e9},
		"length skew":    {Gate: "X", Target: -1, SampleRate: 1e9, I: []float64{0.5, 0.5}, Q: []float64{0.5}},
		"out of range":   {Gate: "X", Target: -1, SampleRate: 1e9, I: []float64{1.5}, Q: []float64{0}},
		"bad rate":       {Gate: "X", Target: -1, I: []float64{0.5}, Q: []float64{0.5}},
		"invalid target": {Gate: "X", Target: -2, SampleRate: 1e9, I: []float64{0.5}, Q: []float64{0.5}},
	} {
		_, err := cl.Compile(ctx, client.CompileRequest{Pulse: spec})
		if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want 400", name, err)
		}
	}

	// Empty batch.
	_, err := cl.CompileBatch(ctx, client.BatchRequest{})
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: err = %v, want 400", err)
	}

	// Batch over the pulse limit.
	specs := make([]client.PulseSpec, 5)
	for i := range specs {
		specs[i] = client.FromPulse(testPulse(i, i+1, 4))
	}
	_, err = cl.CompileBatch(ctx, client.BatchRequest{Pulses: specs})
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: err = %v, want 413", err)
	}

	// Body over the byte limit.
	_, err = cl.Compile(ctx, client.CompileRequest{Pulse: client.FromPulse(testPulse(0, 1, 512))})
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: err = %v, want 413", err)
	}

	// Unknown image.
	_, err = cl.ImageRaw(ctx, "no-such-image")
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("missing image: err = %v, want 404", err)
	}
}

func TestImageStoreEviction(t *testing.T) {
	_, _, cl := newTestServer(t, Config{MaxImages: 2})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		_, err := cl.Compile(ctx, client.CompileRequest{
			Image: fmt.Sprintf("img-%d", i),
			Pulse: client.FromPulse(testPulse(i, i+1, 32)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The oldest image was evicted; the two newest remain.
	var apiErr *client.APIError
	if _, err := cl.ImageRaw(ctx, "img-0"); !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("evicted image fetch: err = %v, want 404", err)
	}
	for _, name := range []string{"img-1", "img-2"} {
		if _, err := cl.ImageRaw(ctx, name); err != nil {
			t.Errorf("image %s: %v", name, err)
		}
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Images) != 2 {
		t.Errorf("stats lists %d images, want 2", len(st.Images))
	}
}

func TestStatsCountersAdvance(t *testing.T) {
	_, _, cl := newTestServer(t, Config{CacheSize: 64})
	ctx := context.Background()
	spec := client.FromPulse(testPulse(1, 2, 64))
	// Same pulse twice: the second compile is a cache hit.
	for i := 0; i < 2; i++ {
		if _, err := cl.Compile(ctx, client.CompileRequest{Pulse: spec}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Compile.Calls != 2 || st.Compile.Pulses != 2 {
		t.Errorf("compile calls/pulses = %d/%d, want 2/2", st.Compile.Calls, st.Compile.Pulses)
	}
	if st.Compile.Encodes != 1 || st.Compile.CacheHits != 1 {
		t.Errorf("encodes/hits = %d/%d, want 1/1", st.Compile.Encodes, st.Compile.CacheHits)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
	if st.Requests.Total == 0 {
		t.Error("request counter did not advance")
	}
}

// TestDerivedServiceCacheReset exercises the override-service map cap.
func TestDerivedServiceCacheReset(t *testing.T) {
	srv, _, cl := newTestServer(t, Config{})
	ctx := context.Background()
	spec := client.FromPulse(testPulse(0, 9, 32))
	for i := 0; i < maxDerived+3; i++ {
		_, err := cl.Compile(ctx, client.CompileRequest{
			Pulse:   spec,
			Options: &client.CompileOptions{Threshold: float64(i+1) / 1024},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	srv.derivedMu.Lock()
	n := len(srv.derived)
	srv.derivedMu.Unlock()
	if n > maxDerived {
		t.Errorf("derived service map grew to %d, cap is %d", n, maxDerived)
	}
}

// TestOptionsRoundTripJSON pins the wire contract of the option names,
// including the tri-state adaptive flag (absent / false / true).
func TestOptionsRoundTripJSON(t *testing.T) {
	adaptive := true
	in := client.CompileOptions{Codec: "dct-w", Window: 8, MSETarget: 5e-6, Adaptive: &adaptive}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"codec":"dct-w","window":8,"mse_target":0.000005,"adaptive":true}`
	if string(b) != want {
		t.Errorf("options JSON = %s, want %s", b, want)
	}
	var out client.CompileOptions
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Codec != in.Codec || out.Window != in.Window || out.MSETarget != in.MSETarget ||
		out.Adaptive == nil || *out.Adaptive != *in.Adaptive {
		t.Errorf("round-trip mismatch: %+v != %+v", out, in)
	}
	// An absent adaptive field decodes to nil (inherit), not false.
	var bare client.CompileOptions
	if err := json.Unmarshal([]byte(`{"window":4}`), &bare); err != nil {
		t.Fatal(err)
	}
	if bare.Adaptive != nil {
		t.Error("absent adaptive decoded non-nil; tri-state inherit is broken")
	}
	if bare.IsZero() {
		t.Error("options with a set window must not read as zero")
	}
	if !(&client.CompileOptions{}).IsZero() {
		t.Error("empty options must read as zero")
	}
}
