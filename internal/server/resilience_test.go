package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"compaqt/client"
)

// compilePost sends one raw compile request and returns the response;
// the resilience tests drive raw HTTP so headers and statuses stay
// visible (the typed client would retry 429s away).
func compilePost(t *testing.T, url string, req client.CompileRequest, header http.Header) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		hreq.Header[k] = vs
	}
	res, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { res.Body.Close() })
	return res
}

func TestAdmissionShed429(t *testing.T) {
	srv, hs, _ := newTestServer(t, Config{MaxInFlight: 1, AdmissionWait: 10 * time.Millisecond})
	// Occupy the only compile slot so the next request must queue and
	// then shed at the admission deadline.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	p := testPulse(0, 1, 64)
	req := client.CompileRequest{Pulse: client.FromPulse(p)}
	res := compilePost(t, hs.URL, req, nil)
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", res.StatusCode)
	}
	if ra := res.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1", ra)
	}
	var er client.ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&er); err != nil || er.Error == "" {
		t.Fatalf("shed response body: %v / %+v", err, er)
	}
	if got := srv.m.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	// 429 counts as a client error, not a server fault.
	if got := srv.m.serverErrors.Load(); got != 0 {
		t.Fatalf("serverErrors = %d after shedding", got)
	}
}

func TestAdmissionRecoversAfterRelease(t *testing.T) {
	srv, hs, cl := newTestServer(t, Config{MaxInFlight: 1, AdmissionWait: 5 * time.Millisecond})
	srv.sem <- struct{}{}
	p := testPulse(0, 1, 64)
	req := client.CompileRequest{Pulse: client.FromPulse(p)}
	res := compilePost(t, hs.URL, req, nil)
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", res.StatusCode)
	}
	<-srv.sem // capacity returns
	if _, err := cl.Compile(context.Background(), req); err != nil {
		t.Fatalf("compile after release: %v", err)
	}
}

func TestClientRetriesThroughShedding(t *testing.T) {
	// The typed client's backoff must ride out a temporarily saturated
	// server: the slot frees while the client is waiting out the 429's
	// Retry-After.
	srv, _, cl := newTestServer(t, Config{MaxInFlight: 1, AdmissionWait: 5 * time.Millisecond})
	srv.sem <- struct{}{}
	go func() {
		time.Sleep(50 * time.Millisecond)
		<-srv.sem
	}()
	p := testPulse(0, 1, 64)
	req := client.CompileRequest{Pulse: client.FromPulse(p)}
	if _, err := cl.Compile(context.Background(), req); err != nil {
		t.Fatalf("compile through shedding: %v", err)
	}
	if got := srv.m.shed.Load(); got == 0 {
		t.Fatal("the server never shed — the test exercised nothing")
	}
}

func TestRequestTimeoutHeaderMapsTo504(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{})
	p := testPulse(0, 1, 4096)
	req := client.CompileRequest{Pulse: client.FromPulse(p)}
	h := http.Header{}
	h.Set("X-Request-Timeout", "1ns")
	res := compilePost(t, hs.URL, req, h)
	if res.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (deadline budget exceeded)", res.StatusCode)
	}
}

func TestRequestTimeoutHeaderInvalid400(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{})
	p := testPulse(0, 1, 64)
	req := client.CompileRequest{Pulse: client.FromPulse(p)}
	// Bare seconds that are not finite or overflow a time.Duration are
	// refused as such, not converted.
	for _, v := range []string{"soon", "-2s", "0", "NaN", "Inf", "-Inf", "1e10"} {
		h := http.Header{}
		h.Set("X-Request-Timeout", v)
		res := compilePost(t, hs.URL, req, h)
		if res.StatusCode != http.StatusBadRequest {
			t.Fatalf("X-Request-Timeout %q: status = %d, want 400", v, res.StatusCode)
		}
		body, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		if v == "1e10" && strings.Contains(string(body), "must be positive") {
			t.Errorf("X-Request-Timeout %q: %s", v, body)
		}
	}
}

func TestRequestTimeoutHeaderGenerousSucceeds(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{})
	p := testPulse(0, 1, 64)
	req := client.CompileRequest{Pulse: client.FromPulse(p)}
	for _, v := range []string{"30s", "2.5"} { // duration form and bare seconds
		h := http.Header{}
		h.Set("X-Request-Timeout", v)
		res := compilePost(t, hs.URL, req, h)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("X-Request-Timeout %q: status = %d, want 200", v, res.StatusCode)
		}
	}
}

func TestHealthStrictHealthyIs200(t *testing.T) {
	_, hs, cl := newTestServer(t, Config{StoreDir: t.TempDir()})
	if err := cl.HealthStrict(context.Background()); err != nil {
		t.Fatalf("strict health on a healthy store: %v", err)
	}
	res, err := http.Get(hs.URL + "/healthz?strict=1")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var h client.HealthResponse
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK || h.Status != "ok" || h.Store != "ok" {
		t.Fatalf("strict healthz = %d %+v", res.StatusCode, h)
	}
}

func TestConfigTimeoutDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.AdmissionWait != 10*time.Second {
		t.Fatalf("AdmissionWait default = %v", cfg.AdmissionWait)
	}
	if cfg.ReadHeaderTimeout != 5*time.Second || cfg.ReadTimeout != 2*time.Minute || cfg.IdleTimeout != 2*time.Minute {
		t.Fatalf("timeout defaults = %v/%v/%v", cfg.ReadHeaderTimeout, cfg.ReadTimeout, cfg.IdleTimeout)
	}
	neg := Config{ReadHeaderTimeout: -1, ReadTimeout: -1, IdleTimeout: -1}.withDefaults()
	if neg.ReadHeaderTimeout != 0 || neg.ReadTimeout != 0 || neg.IdleTimeout != 0 {
		t.Fatalf("negative timeouts resolve to %v/%v/%v, want disabled", neg.ReadHeaderTimeout, neg.ReadTimeout, neg.IdleTimeout)
	}
}

func TestShedErrorIsTyped(t *testing.T) {
	// A context-canceled acquire must not be rewritten into 429 or 504.
	s := &Server{cfg: Config{AdmissionWait: time.Hour}.withDefaults(), sem: make(chan struct{}, 1)}
	s.sem <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.acquire(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire on canceled ctx = %v", err)
	}
	var he *httpError
	if errors.As(err, &he) {
		t.Fatal("cancellation dressed up as an HTTP error")
	}
}
