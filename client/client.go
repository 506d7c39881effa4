package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"compaqt"
)

// Client talks to a compaqt compile server. It is safe for concurrent
// use; the zero http.Client default is replaced by http.DefaultClient.
//
// Every API call the server serves idempotently — Compile and
// CompileBatch are content-addressed (recompiling the same pulses
// yields byte-identical results), image and stats reads are plain GETs
// — is retried automatically on transport failures and retryable
// server responses (429/5xx) with exponential backoff and full jitter,
// honoring a server-supplied Retry-After. See RetryPolicy and
// WithRetry; WithHedge additionally races a second ImageRaw attempt
// against a slow first one.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
	hedge time.Duration
	// timeoutHeader caches retry.AttemptTimeout.String() so the hot
	// request path does not re-format the same duration per call.
	timeoutHeader string
	// extra holds WithHeader's static headers. Values are shared
	// slices assigned into each request's header map — one map insert
	// per request instead of a cloning RoundTripper.
	extra http.Header

	// sleep and rng are test seams; production clients keep the
	// defaults (context-aware timer sleep, the shared PRNG).
	sleep func(ctx context.Context, d time.Duration) error
	rng   func() uint64
}

// RetryPolicy shapes the client's automatic retries. All calls except
// Health (a liveness probe must not mask flapping) retry under it.
type RetryPolicy struct {
	// MaxAttempts bounds total tries per call, first included; values
	// below 1 mean a single attempt (no retries).
	MaxAttempts int
	// BaseDelay is the first backoff step; attempt n draws a full-jitter
	// delay in [0, min(MaxDelay, BaseDelay<<n)).
	BaseDelay time.Duration
	// MaxDelay caps the backoff and any server-supplied Retry-After.
	MaxDelay time.Duration
	// AttemptTimeout bounds each individual attempt; 0 leaves attempts
	// bounded only by the caller's context. When set it is also sent to
	// the server as X-Request-Timeout, so an abandoned attempt stops
	// consuming server compile capacity.
	AttemptTimeout time.Duration
}

// DefaultRetryPolicy is the policy New installs: three attempts, 50ms
// base, 2s cap, no per-attempt timeout.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying HTTP client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetry replaces the retry policy (see DefaultRetryPolicy).
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p }
}

// WithRetryDisabled turns automatic retries off: every call makes
// exactly one attempt.
func WithRetryDisabled() Option {
	return func(c *Client) { c.retry = RetryPolicy{MaxAttempts: 1} }
}

// WithHedge enables hedged image reads: if an ImageRaw (or Image) GET
// has not completed after delay, a second identical request is raced
// against it — the first response wins and the loser is canceled.
// Pick the delay near the endpoint's tail latency (p95/p99); stored
// images serve in microseconds, so even a small delay only fires when
// something is genuinely wrong with the first attempt.
func WithHedge(delay time.Duration) Option {
	return func(c *Client) {
		if delay > 0 {
			c.hedge = delay
		}
	}
}

// WithHeader stamps a static header on every request the client
// sends. The cluster tier marks inter-peer traffic with it; it beats a
// header-setting RoundTripper, which must clone each request to stay
// mutation-free.
func WithHeader(key, value string) Option {
	return func(c *Client) {
		if c.extra == nil {
			c.extra = make(http.Header, 1)
		}
		c.extra.Set(key, value)
	}
}

// New builds a client for the server at baseURL (e.g.
// "http://localhost:8371").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:  strings.TrimRight(baseURL, "/"),
		hc:    http.DefaultClient,
		retry: DefaultRetryPolicy(),
		sleep: sleepCtx,
		rng:   rand.Uint64,
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.retry.AttemptTimeout > 0 {
		c.timeoutHeader = c.retry.AttemptTimeout.String()
	}
	return c
}

// Health checks GET /healthz. It returns nil when the server reports
// "ok" and an *APIError while the server is draining or down. Health
// is deliberately never retried: a probe that masks flapping is not a
// probe.
func (c *Client) Health(ctx context.Context) error {
	var h HealthResponse
	return c.getJSON(ctx, "/healthz", &h)
}

// HealthStrict checks GET /healthz?strict=1, which additionally fails
// (503) while the server's persistent store is degraded. It is the
// load-balancer signal: strict health pulls a node whose disk is
// misbehaving out of rotation even though it still serves.
func (c *Client) HealthStrict(ctx context.Context) error {
	var h HealthResponse
	return c.getJSON(ctx, "/healthz?strict=1", &h)
}

// Stats fetches the server's cache and request metrics.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var s StatsResponse
	err := c.withRetry(ctx, func(ctx context.Context) error {
		s = StatsResponse{}
		return c.getJSON(ctx, "/v1/stats", &s)
	})
	if err != nil {
		return nil, err
	}
	return &s, nil
}

// Compile compresses a single pulse. Compiles are content-addressed
// and therefore idempotent, which is what makes the automatic retry
// safe: a retried request can only re-derive the same bytes. The
// request is encoded once, into one buffer sized for it up front, and
// every attempt resends those bytes.
func (c *Client) Compile(ctx context.Context, req CompileRequest) (*CompileResponse, error) {
	body, err := appendCompileRequest(make([]byte, 0, req.sizeBound()), &req)
	if err != nil {
		return nil, err
	}
	var resp CompileResponse
	err = c.withRetry(ctx, func(ctx context.Context) error {
		resp = CompileResponse{}
		return c.postJSON(ctx, "/v1/compile", body, &resp)
	})
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// CompileBatch compresses a pulse list as one order-stable,
// dedup-aware batch. Retries are safe for the same reason Compile's
// are: the batch result is a pure function of its pulse content. The
// request is encoded once, as Compile's is.
func (c *Client) CompileBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	body, err := appendBatchRequest(make([]byte, 0, req.sizeBound()), &req)
	if err != nil {
		return nil, err
	}
	var resp BatchResponse
	err = c.withRetry(ctx, func(ctx context.Context) error {
		resp = BatchResponse{}
		return c.postJSON(ctx, "/v1/compile/batch", body, &resp)
	})
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// ImageRaw streams a stored image's serialized wire-format bytes,
// retrying (and, under WithHedge, racing a second attempt against a
// slow first one) like every idempotent call.
func (c *Client) ImageRaw(ctx context.Context, name string) ([]byte, error) {
	var b []byte
	err := c.withRetry(ctx, func(ctx context.Context) error {
		var err error
		b, err = c.imageRawHedged(ctx, name)
		return err
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// ImageReader streams a stored image's wire bytes without buffering
// them: the returned reader is the response body, and the int64 is the
// declared Content-Length (-1 when chunked). Retries cover the
// connection and header phase only — once bytes flow, a failure
// surfaces to the caller, who owns closing the reader. This is the
// relay primitive: a pure-proxy cluster node pipes a peer's body
// straight into its own response, overlapping the two hops instead of
// buffering an image of any size in between. Hedging does not apply;
// it exists to race buffered reads, not to tee two live streams.
func (c *Client) ImageReader(ctx context.Context, name string) (io.ReadCloser, int64, error) {
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 0; ; attempt++ {
		res, err := c.do(ctx, http.MethodGet, "/v1/images/"+url.PathEscape(name), nil)
		if err == nil {
			if res.StatusCode == http.StatusOK {
				return res.Body, res.ContentLength, nil
			}
			err = apiError(res)
		}
		if attempt+1 >= attempts || ctx.Err() != nil || !retryableErr(err) {
			return nil, 0, err
		}
		if serr := c.sleep(ctx, c.backoff(attempt, err)); serr != nil {
			return nil, 0, err
		}
	}
}

// Image fetches a stored image and deserializes it, ready for local
// playback through a compaqt.Service.
func (c *Client) Image(ctx context.Context, name string) (*compaqt.Image, error) {
	b, err := c.ImageRaw(ctx, name)
	if err != nil {
		return nil, err
	}
	// The body is fully in hand; the byte decoder skips the streaming
	// reader's chunked re-buffering.
	return compaqt.DecodeImageBytes(b)
}

// imageRawHedged runs one hedged image GET: a second attempt launches
// if the first is still in flight after the hedge delay, the first
// response wins, and the loser is canceled through the shared context.
// A failed first attempt before the hedge fires is returned directly —
// failure handling belongs to the retry layer, hedging only covers
// slowness. When both attempts fail, the error returned is the most
// recent one, except that a typed *APIError (the server actually
// answered) always beats a bare transport failure: the attempt whose
// request died of the shared-context cancellation race must not mask
// what the server really said.
func (c *Client) imageRawHedged(ctx context.Context, name string) ([]byte, error) {
	if c.hedge <= 0 {
		return c.imageRawOnce(ctx, name)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		b   []byte
		err error
	}
	resc := make(chan result, 2)
	run := func() {
		b, err := c.imageRawOnce(hctx, name)
		resc <- result{b, err}
	}
	go run()
	outstanding := 1
	hedged := false
	timer := time.NewTimer(c.hedge)
	defer timer.Stop()
	var lastErr, lastAPIErr error
	for {
		select {
		case r := <-resc:
			if r.err == nil {
				return r.b, nil
			}
			lastErr = r.err
			var apiErr *APIError
			if errors.As(r.err, &apiErr) {
				lastAPIErr = r.err
			}
			if outstanding--; outstanding == 0 {
				if lastAPIErr != nil {
					return nil, lastAPIErr
				}
				return nil, lastErr
			}
		case <-timer.C:
			if !hedged {
				hedged = true
				outstanding++
				go run()
			}
		}
	}
}

// PutImageRaw publishes serialized wire-format image bytes under name
// (PUT /v1/images/{name}). The server decodes and validates the bytes
// before storing them, so a corrupted body is rejected, not served.
// Content addressing makes the call idempotent — re-putting identical
// bytes is a server-side dedup — which is what lets it retry. This is
// the cluster replication primitive: a compiling node pushes each
// image to its digest's ring owner through it.
func (c *Client) PutImageRaw(ctx context.Context, name string, wire []byte) error {
	return c.withRetry(ctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut,
			c.base+"/v1/images/"+url.PathEscape(name), bytes.NewReader(wire))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		if c.retry.AttemptTimeout > 0 {
			req.Header.Set("X-Request-Timeout", c.timeoutHeader)
		}
		for k, v := range c.extra {
			req.Header[k] = v
		}
		res, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		if res.StatusCode != http.StatusOK && res.StatusCode != http.StatusNoContent {
			return apiError(res)
		}
		drainClose(res)
		return nil
	})
}

// ClusterView fetches the server's ring view (GET /v1/cluster):
// membership, per-peer health, key-space shares and the forwarding
// counters. Servers running without a -peers cluster answer 404.
func (c *Client) ClusterView(ctx context.Context) (*ClusterResponse, error) {
	var v ClusterResponse
	err := c.withRetry(ctx, func(ctx context.Context) error {
		v = ClusterResponse{}
		return c.getJSON(ctx, "/v1/cluster", &v)
	})
	if err != nil {
		return nil, err
	}
	return &v, nil
}

// Gossip runs one membership push-pull exchange (POST
// /v1/cluster/gossip): send our member table, receive the peer's
// merged one. Gossip is deliberately never retried — the next round
// reaches another peer anyway, and a retry would only mask flapping.
func (c *Client) Gossip(ctx context.Context, req GossipRequest) (*GossipResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var resp GossipResponse
	if err := c.postJSON(ctx, "/v1/cluster/gossip", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Digests fetches the images a node reports holding (GET
// /v1/cluster/digests) — the anti-entropy repair loop's shopping list.
func (c *Client) Digests(ctx context.Context) (*DigestsResponse, error) {
	var resp DigestsResponse
	err := c.withRetry(ctx, func(ctx context.Context) error {
		resp = DigestsResponse{}
		return c.getJSON(ctx, "/v1/cluster/digests", &resp)
	})
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// StatsCluster fetches the cluster-wide stats aggregate (GET
// /v1/stats?scope=cluster): the answering node fans out to every live
// member, so one call sees the whole tier — dead peers appear as error
// slots, not failures.
func (c *Client) StatsCluster(ctx context.Context) (*ClusterStatsResponse, error) {
	var resp ClusterStatsResponse
	err := c.withRetry(ctx, func(ctx context.Context) error {
		resp = ClusterStatsResponse{}
		return c.getJSON(ctx, "/v1/stats?scope=cluster", &resp)
	})
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

func (c *Client) imageRawOnce(ctx context.Context, name string) ([]byte, error) {
	res, err := c.do(ctx, http.MethodGet, "/v1/images/"+url.PathEscape(name), nil)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, apiError(res)
	}
	b, err := readBody(res)
	if err != nil {
		drainClose(res)
		return nil, err
	}
	res.Body.Close()
	return b, nil
}

// readBody reads a response body into one right-sized buffer when the
// server declared its length — the image endpoints always do — instead
// of io.ReadAll's grow-and-copy loop, which matters on the forwarding
// hot path where every image GET rides this. Chunked or absurd lengths
// fall back to ReadAll; a body shorter than declared surfaces as
// io.ErrUnexpectedEOF (a retryable transport failure), longer as an
// explicit error.
func readBody(res *http.Response) ([]byte, error) {
	n := res.ContentLength
	if n < 0 || n > 1<<30 {
		return io.ReadAll(res.Body)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(res.Body, b); err != nil {
		return nil, err
	}
	var tail [1]byte
	if m, _ := res.Body.Read(tail[:]); m > 0 {
		return nil, fmt.Errorf("client: body exceeds declared Content-Length %d", n)
	}
	return b, nil
}

// withRetry runs op under the retry policy: transport failures,
// per-attempt timeouts and retryable server statuses (429/5xx) back
// off with full jitter and try again; everything else — including
// cancellation of the caller's own context — returns immediately.
func (c *Client) withRetry(ctx context.Context, op func(ctx context.Context) error) error {
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 0; ; attempt++ {
		actx := ctx
		var cancel context.CancelFunc
		if c.retry.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, c.retry.AttemptTimeout)
		}
		err := op(actx)
		if cancel != nil {
			cancel()
		}
		if err == nil || attempt+1 >= attempts || ctx.Err() != nil || !retryableErr(err) {
			return err
		}
		if serr := c.sleep(ctx, c.backoff(attempt, err)); serr != nil {
			return err
		}
	}
}

// retryableErr classifies an attempt failure. Server responses retry
// only on explicitly transient statuses; anything that never reached a
// response (connection reset, truncated body, attempt timeout) is
// transport trouble and retries — the caller-context check in
// withRetry keeps a canceled caller from looping.
func retryableErr(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Temporary()
	}
	return !errors.Is(err, context.Canceled)
}

// backoff draws the full-jitter delay for one retry: uniform in
// [0, min(MaxDelay, BaseDelay<<attempt)), floored by a server-supplied
// Retry-After (itself capped at MaxDelay — the server's hint wins over
// jitter, but never stalls the client unboundedly).
func (c *Client) backoff(attempt int, err error) time.Duration {
	base, most := c.retry.BaseDelay, c.retry.MaxDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if most <= 0 {
		most = 2 * time.Second
	}
	ceil := base << attempt
	if ceil > most || ceil <= 0 {
		ceil = most
	}
	d := time.Duration(c.rng() % uint64(ceil))
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.RetryAfter > 0 {
		ra := apiErr.RetryAfter
		if ra > most {
			ra = most
		}
		if ra > d {
			d = ra
		}
	}
	return d
}

// sleepCtx waits d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Client) do(ctx context.Context, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.retry.AttemptTimeout > 0 {
		// Propagate the attempt budget so the server can stop working on
		// an attempt this client has already given up on.
		req.Header.Set("X-Request-Timeout", c.timeoutHeader)
	}
	for k, v := range c.extra {
		req.Header[k] = v
	}
	return c.hc.Do(req)
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	res, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return apiError(res)
	}
	err = json.NewDecoder(res.Body).Decode(out)
	drainClose(res)
	return err
}

// postJSON posts an encoded JSON body and decodes the JSON reply into
// out. The body is read-only here: retries resend the same bytes.
func (c *Client) postJSON(ctx context.Context, path string, body []byte, out any) error {
	res, err := c.do(ctx, http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return apiError(res)
	}
	err = json.NewDecoder(res.Body).Decode(out)
	drainClose(res)
	return err
}

// drainClose drains a bounded remainder of the body before closing,
// so the keep-alive connection returns to the pool instead of being
// torn down with unread bytes on it.
func drainClose(res *http.Response) {
	io.Copy(io.Discard, io.LimitReader(res.Body, 256<<10))
	res.Body.Close()
}

// apiError turns a non-2xx response into an *APIError, preferring the
// server's JSON error body and falling back to the raw text; the body
// is always drained and closed here. A Retry-After header (seconds or
// HTTP date) rides along for the retry layer.
func apiError(res *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(res.Body, 4096))
	drainClose(res)
	e := &APIError{
		StatusCode: res.StatusCode,
		RetryAfter: parseRetryAfter(res.Header.Get("Retry-After")),
		Body:       string(body),
	}
	var er ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		e.Message = er.Error
		return e
	}
	e.Message = strings.TrimSpace(string(body))
	if e.Message == "" {
		e.Message = fmt.Sprintf("(%s)", http.StatusText(res.StatusCode))
	}
	return e
}

// parseRetryAfter reads a Retry-After value: delta-seconds or an HTTP
// date; unparseable or absent values yield 0.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}
