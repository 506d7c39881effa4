//go:build faultinject

// Chaos suite: the sustained concurrent workload from load_test.go
// re-run under seeded fault injection on both sides of the stack —
// lossy disk writes under the persistent store and a lossy transport
// under every client. The invariants are the resilience layer's
// contract: no corruption ever (every byte that reaches a client is
// exactly the in-process compile of the same pulses), a bounded
// failure rate while faults rage (the client's retries absorb them),
// and full recovery once faults stop (healthy store, strict healthz
// green, warm cache serving with zero new encodes).
package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compaqt"
	"compaqt/bench"
	"compaqt/client"
	"compaqt/internal/faults"
	"compaqt/qctrl"
)

func TestChaosWorkloadRecovers(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { chaosRun(t, seed) })
	}
}

func chaosRun(t *testing.T, seed uint64) {
	srv, hs, _ := newTestServer(t, Config{
		MaxInFlight: 4,
		Parallelism: 2,
		StoreDir:    t.TempDir(),
		// Shed fast under the fault-amplified queueing so the client
		// retry path gets exercised, not just the queue.
		AdmissionWait: 250 * time.Millisecond,
	})
	if srv.store == nil {
		t.Fatal("chaos needs the persistent store")
	}
	srv.store.SetProbeInterval(5 * time.Millisecond)

	// Seeded lossy disk: every class of write-path fault, including torn
	// writes, at rates high enough to degrade the store repeatedly over
	// the run.
	inj := faults.NewInjector(faults.FSConfig{
		Seed: seed,
		// The store's content-addressed dedup collapses the workload's 8
		// shapes into a few dozen write-path operations, so per-op rates
		// are set high enough that every seed's schedule actually lands
		// faults there.
		Probs: [5]float64{
			faults.OpWrite:  0.2,
			faults.OpSync:   0.2,
			faults.OpRename: 0.2,
			faults.OpCreate: 0.05,
			faults.OpMmap:   0.05,
		},
		TornWrites: true,
	})
	faults.InstallFS(inj)
	t.Cleanup(faults.UninstallFS)

	// Seeded lossy transport: ~5% of requests reset, answer 503, or
	// truncate mid-body.
	rt := faults.NewRoundTripper(nil, faults.HTTPConfig{
		Seed:         seed,
		ResetProb:    0.02,
		Prob503:      0.02,
		TruncateProb: 0.01,
		RetryAfter:   1,
	})
	faultyHTTP := &http.Client{Transport: rt}
	retry := client.RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   time.Millisecond,
		MaxDelay:    10 * time.Millisecond,
	}

	// Reference compiles, exactly as the load test builds them.
	ctx := context.Background()
	wl, err := bench.NewWorkload(bench.WorkloadOptions{
		Machine:    qctrl.Bogota(),
		Families:   []string{"ghz", "qft", "bv", "mirror", "qaoa", "vqe"},
		Seeds:      2,
		RepeatSkew: 0.4,
		Seed:       17,
	})
	if err != nil {
		t.Fatal(err)
	}
	const shapes = 8
	reqs, err := wl.Requests(shapes)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := compaqt.New()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, shapes)
	wantBytes := make([][]byte, shapes)
	specSets := make([][]client.PulseSpec, shapes)
	for s, r := range reqs {
		names[s] = r.Name()
		img, err := ref.CompileBatch(ctx, names[s], r.Pulses)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := img.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		wantBytes[s] = buf.Bytes()
		specs := make([]client.PulseSpec, len(r.Pulses))
		for i, p := range r.Pulses {
			specs[i] = client.FromPulse(p)
		}
		specSets[s] = specs
	}

	clients, iters := 120, 3
	if testing.Short() {
		clients, iters = 40, 2
	}
	var ops, fails, corrupt atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(hs.URL, client.WithHTTPClient(faultyHTTP), client.WithRetry(retry))
			for i := 0; i < iters; i++ {
				// Stride 2 so the batch clients (c%4 in {0,1}, i.e. c mod 8
				// in {0,1,4,5}) reach all 8 shapes even in -short mode's two
				// iterations — the zero-new-encodes recovery invariant needs
				// every shape compiled at least once while faults rage.
				s := (c + 2*i) % shapes
				switch c % 4 {
				case 0, 1:
					ops.Add(1)
					resp, err := cl.CompileBatch(ctx, client.BatchRequest{
						Image:        names[s],
						Pulses:       specSets[s],
						IncludeImage: true,
					})
					if err != nil {
						fails.Add(1)
						continue
					}
					got, err := base64.StdEncoding.DecodeString(resp.ImageB64)
					if err != nil || !bytes.Equal(got, wantBytes[s]) {
						corrupt.Add(1)
					}
				case 2:
					ops.Add(1)
					if _, err := cl.Compile(ctx, client.CompileRequest{
						Pulse: specSets[s][i%len(specSets[s])],
					}); err != nil {
						fails.Add(1)
					}
				case 3:
					ops.Add(1)
					if _, err := cl.Stats(ctx); err != nil {
						fails.Add(1)
					}
					ops.Add(1)
					b, err := cl.ImageRaw(ctx, names[s])
					if err != nil {
						// Not-found is legitimate until a batch stores the
						// shape; anything else is a failed op.
						var apiErr *client.APIError
						if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
							fails.Add(1)
						}
						continue
					}
					if !bytes.Equal(b, wantBytes[s]) {
						corrupt.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// Invariant 1: zero corruption, no matter the fault schedule. A
	// request either fails visibly or delivers exactly the right bytes.
	if n := corrupt.Load(); n != 0 {
		t.Fatalf("%d corrupted responses reached clients", n)
	}
	// Invariant 2: the retry layer recovers at least 99%% of requests
	// under the ~5%% per-attempt transport fault rate.
	total, failed := ops.Load(), fails.Load()
	if total == 0 {
		t.Fatal("workload issued no operations")
	}
	if rate := float64(failed) / float64(total); rate > 0.01 {
		t.Fatalf("failed ops %d/%d (%.2f%%), want <= 1%%", failed, total, 100*rate)
	}
	t.Logf("seed %d: ops %d, failed %d, fs faults %d, http faults %d, shed %d",
		seed, total, failed, inj.Injected(), rt.Injected(), srv.m.shed.Load())

	// Faults cease. Everything must heal without a restart.
	inj.Stop()
	rt.Stop()
	if !srv.store.Probe() {
		t.Fatal("store probe failed after faults stopped")
	}
	if err := srv.store.Healthy(); err != nil {
		t.Fatalf("store still degraded after faults stopped: %v", err)
	}
	clean := client.New(hs.URL)
	if err := clean.HealthStrict(ctx); err != nil {
		t.Fatalf("strict healthz after recovery: %v", err)
	}

	// Invariant 3: recovery serves warm — resubmitting every shape is
	// pure cache traffic (zero new encodes) and every image byte-matches.
	st0, err := clean.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for s := range names {
		resp, err := clean.CompileBatch(ctx, client.BatchRequest{
			Image:        names[s],
			Pulses:       specSets[s],
			IncludeImage: true,
		})
		if err != nil {
			t.Fatalf("post-recovery batch %q: %v", names[s], err)
		}
		got, err := base64.StdEncoding.DecodeString(resp.ImageB64)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes[s]) {
			t.Fatalf("post-recovery batch %q bytes differ", names[s])
		}
		b, err := clean.ImageRaw(ctx, names[s])
		if err != nil {
			t.Fatalf("post-recovery image %q: %v", names[s], err)
		}
		if !bytes.Equal(b, wantBytes[s]) {
			t.Fatalf("post-recovery image %q bytes differ", names[s])
		}
	}
	st1, err := clean.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Compile.Encodes != st0.Compile.Encodes {
		t.Fatalf("post-recovery traffic re-encoded %d waveforms, want 0 (warm cache)",
			st1.Compile.Encodes-st0.Compile.Encodes)
	}
	if srv.m.inFlight.Load() != 0 {
		t.Fatalf("in-flight gauge = %d after chaos", srv.m.inFlight.Load())
	}
}
