package main

import (
	"context"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"compaqt/client"
)

// clients is the closed-loop concurrency: each caller waits for its
// reply before sending the next request.
const clients = 2

// loadClient is one closed-loop caller: a retry-free client per node,
// the buffers its requests reuse, and the outcome of each timed request.
type loadClient struct {
	id    int
	nodes []*client.Client
	// buf receives GET bodies, so reads allocate nothing per response.
	buf []byte
	// n is the length of the last body read into buf.
	n int
	// specs is the reusable pulse-spec buffer of generated requests.
	specs []client.PulseSpec
	// batch is the last compile response.
	batch *client.BatchResponse
	// lat holds one latency (ms) per request of the current phase;
	// failures are +Inf.
	lat []float64
}

// newLoadClients builds the callers for one round. Every client of a
// round shares one transport capped at two connections per node.
func newLoadClients(r *round, tr *tracer, reuse []*loadClient) ([]*loadClient, *http.Transport) {
	base := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		IdleConnTimeout:     time.Minute,
	}
	var rt http.RoundTripper = base
	if tr != nil {
		rt = tr.clientTransport(base)
	}
	hc := &http.Client{Transport: rt}
	lcs := reuse
	if lcs == nil {
		lcs = make([]*loadClient, clients)
		for i := range lcs {
			lcs[i] = &loadClient{id: i, lat: make([]float64, 0, 1<<16)}
		}
	}
	for _, lc := range lcs {
		lc.nodes = lc.nodes[:0]
		for _, nd := range r.nodes {
			lc.nodes = append(lc.nodes, client.New(nd.url, client.WithHTTPClient(hc), client.WithRetryDisabled()))
		}
	}
	return lcs, base
}

// phaseResult is what one timed phase measured: its request tally,
// wall time and latency quantiles (failures rank above every success).
type phaseResult struct {
	ok, failed int
	wall       time.Duration
	p50, p90   float64
	// lat holds every latency of the phase, sorted.
	lat []float64
}

// runPhase drives the closed loop: each client takes the next request
// index in [start, end) until none is left. The latency clock covers
// the request only; the output check runs after it stops. With a
// tracer, every request carries a fresh trace ID and a client-call span.
func runPhase(ctx context.Context, w workload, lcs []*loadClient, start, end int64, tr *tracer) phaseResult {
	for _, lc := range lcs {
		lc.lat = lc.lat[:0]
	}
	var next atomic.Int64
	next.Store(start)
	var wg sync.WaitGroup
	var ok, failed atomic.Int64
	began := time.Now()
	for _, lc := range lcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= end {
					return
				}
				rctx, sp := ctx, (*span)(nil)
				if tr != nil {
					rctx, sp = tr.startRequest(ctx)
				}
				t0 := time.Now()
				err := w.issue(rctx, lc, k)
				d := time.Since(t0)
				if sp != nil {
					tr.end(sp)
				}
				if err == nil {
					err = w.check(lc, k)
				}
				if err != nil {
					lc.lat = append(lc.lat, math.Inf(1))
					failed.Add(1)
					logf("request %d (client %d): %v", k, lc.id, err)
					continue
				}
				lc.lat = append(lc.lat, d.Seconds()*1e3)
				ok.Add(1)
			}
		}()
	}
	wg.Wait()
	res := phaseResult{ok: int(ok.Load()), failed: int(failed.Load()), wall: time.Since(began)}
	var lat []float64
	for _, lc := range lcs {
		lat = append(lat, lc.lat...)
	}
	slices.Sort(lat)
	res.p50, res.p90 = quantile(lat, 0.5), quantile(lat, 0.9)
	res.lat = lat
	return res
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median is the middle of unsorted values (mean of the two middles).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
