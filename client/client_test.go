package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// newTestClient builds a client against handler with instant recorded
// backoff sleeps and a deterministic jitter source, so retry tests run
// in microseconds and assert exact delays.
func newTestClient(t *testing.T, handler http.Handler, opts ...Option) (*Client, *[]time.Duration) {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	c := New(ts.URL, opts...)
	slept := &[]time.Duration{}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return ctx.Err()
	}
	c.rng = func() uint64 { return 0 } // full jitter draws its minimum
	return c, slept
}

func TestRetryRecoversFrom503(t *testing.T) {
	var calls atomic.Int64
	c, slept := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, `{"codec":"intdct-w"}`)
	}))
	resp, err := c.Compile(context.Background(), CompileRequest{})
	if err != nil {
		t.Fatalf("Compile with two 503s then success: %v", err)
	}
	if resp.Codec != "intdct-w" {
		t.Fatalf("resp.Codec = %q", resp.Codec)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	// Each backoff is floored by the server's Retry-After: 1s, capped
	// only by MaxDelay (2s default).
	if len(*slept) != 2 || (*slept)[0] != time.Second || (*slept)[1] != time.Second {
		t.Fatalf("backoffs = %v, want [1s 1s]", *slept)
	}
}

func TestRetryStopsOnNonRetryableStatus(t *testing.T) {
	var calls atomic.Int64
	c, slept := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad pulse"}`, http.StatusBadRequest)
	}))
	_, err := c.Compile(context.Background(), CompileRequest{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.StatusCode != http.StatusBadRequest || apiErr.Message != "bad pulse" {
		t.Fatalf("apiErr = %+v", apiErr)
	}
	if apiErr.Temporary() {
		t.Fatal("400 claims to be temporary")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (400 is not retryable)", got)
	}
	if len(*slept) != 0 {
		t.Fatalf("client backed off %v for a permanent error", *slept)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	var calls atomic.Int64
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusBadGateway)
	}))
	_, err := c.Stats(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadGateway {
		t.Fatalf("err = %v, want 502 *APIError", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want MaxAttempts=3", got)
	}
}

func TestRetryDisabled(t *testing.T) {
	var calls atomic.Int64
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}), WithRetryDisabled())
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("Stats succeeded against a 503-only server")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1", got)
	}
}

func TestRetryRespectsCallerCancellation(t *testing.T) {
	var calls atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		cancel() // the caller gives up while the server is failing
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	if _, err := c.Stats(ctx); err == nil {
		t.Fatal("Stats succeeded after caller cancellation")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls after cancellation, want 1", got)
	}
}

func TestHealthNeverRetries(t *testing.T) {
	var calls atomic.Int64
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"status":"draining"}`, http.StatusServiceUnavailable)
	}))
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("Health = nil against a draining server")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("health probe retried: %d calls", got)
	}
}

func TestAPIErrorCarriesBodyAndRetryAfter(t *testing.T) {
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		http.Error(w, "plain text overload", http.StatusTooManyRequests)
	}), WithRetryDisabled())
	_, err := c.ImageRaw(context.Background(), "x")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("StatusCode = %d", apiErr.StatusCode)
	}
	if apiErr.Message != "plain text overload" {
		t.Fatalf("Message = %q (non-JSON bodies must surface verbatim)", apiErr.Message)
	}
	if apiErr.RetryAfter != 3*time.Second {
		t.Fatalf("RetryAfter = %v, want 3s", apiErr.RetryAfter)
	}
	if !apiErr.Temporary() {
		t.Fatal("429 is not classified temporary")
	}
}

func TestAttemptTimeoutPropagatesHeader(t *testing.T) {
	var header atomic.Value
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		header.Store(r.Header.Get("X-Request-Timeout"))
		io.WriteString(w, `{}`)
	}), WithRetry(RetryPolicy{MaxAttempts: 1, AttemptTimeout: 2 * time.Second}))
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, _ := header.Load().(string); got != "2s" {
		t.Fatalf("X-Request-Timeout = %q, want 2s", got)
	}
}

func TestAttemptTimeoutRetriesSlowAttempt(t *testing.T) {
	var calls atomic.Int64
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-r.Context().Done() // first attempt hangs until its budget expires
			return
		}
		io.WriteString(w, `{}`)
	}), WithRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, AttemptTimeout: 50 * time.Millisecond}))
	if _, err := c.Stats(context.Background()); err != nil {
		t.Fatalf("Stats with one hung attempt: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
}

// TestImageRawCommitsMemoryAsBytesArrive pins the body read every
// forward-and-fill and repair fetch goes through: a server that
// declares a 64 MiB image and sends one byte costs the client what
// arrived, not what was declared, and the short body still fails as a
// truncation.
func TestImageRawCommitsMemoryAsBytesArrive(t *testing.T) {
	const declared = 64<<20 - 1
	c, _ := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(declared))
		w.Write([]byte{0xa5})
	}), WithRetryDisabled())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.ImageRaw(context.Background(), "img")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("ImageRaw of a body declaring %d bytes and sending 1 allocated %d bytes, want under 1 MiB", declared, got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	c := New("http://example.invalid")
	c.rng = func() uint64 { return 1<<63 - 1 }
	err := &APIError{StatusCode: 503}
	for attempt := 0; attempt < 20; attempt++ {
		d := c.backoff(attempt, err)
		if d < 0 || d >= c.retry.MaxDelay {
			t.Fatalf("attempt %d: backoff %v outside [0, %v)", attempt, d, c.retry.MaxDelay)
		}
	}
	// Retry-After above MaxDelay is capped, not honored verbatim.
	err.RetryAfter = time.Hour
	if d := c.backoff(0, err); d != c.retry.MaxDelay {
		t.Fatalf("capped Retry-After backoff = %v, want %v", d, c.retry.MaxDelay)
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("5"); d != 5*time.Second {
		t.Fatalf("delta-seconds = %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Fatalf("absent = %v", d)
	}
	if d := parseRetryAfter("garbage"); d != 0 {
		t.Fatalf("garbage = %v", d)
	}
	future := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(future); d <= 0 || d > 10*time.Second {
		t.Fatalf("http-date = %v, want (0, 10s]", d)
	}
	past := time.Now().Add(-10 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(past); d != 0 {
		t.Fatalf("past http-date = %v, want 0", d)
	}
}
