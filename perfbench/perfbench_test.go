package main

import (
	"bytes"
	"encoding/base64"
	"slices"
	"testing"

	"compaqt/client"
)

var (
	workloads = []string{"recal", "circuit-mix", "image-get", "cluster-fetch"}
	endToEnd  = []string{"setup_s", "throughput_ops_s", "latency_p50_ms", "latency_p90_ms",
		"compression_ratio", "worst_mse", "live_heap_mb"}
)

func short(t *testing.T, workload string, seed uint64, trace bool) *result {
	t.Helper()
	res, err := execute(config{workload: workload, seed: seed, seconds: 0.4, trace: trace, work: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestShortRunsAreClean runs every workload briefly: no request or
// check may fail, and every end-to-end metric must be reported.
func TestShortRunsAreClean(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			res := short(t, w, 1, false)
			for _, name := range endToEnd {
				m, ok := res.Metrics[name]
				if !ok || m.Value <= 0 || m.Unit != units[name] {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", name, m, ok, units[name])
				}
			}
		})
	}
}

// exactLayer lists the per-layer metrics that are pure functions of the
// fixed request set. On cluster-fetch a hedged peer GET fires on a slow
// first attempt, and its canceled loser can fail the owner's response
// write, so the two counters that see hedges depend on timing there.
func exactLayer(workload string) []string {
	names := []string{
		"client.req_kb", "client.resp_kb", "server.shed",
		"service.encodes_per_op", "service.cache_hits_per_op", "service.dedup_ratio",
		"cache.hit_ratio", "cache.evictions", "codec.encodes", "core.image_kb",
		"store.puts", "store.put_dedups", "store.hits", "store.misses", "store.mmap_serves",
		"cluster.forwarded", "cluster.peer_fills", "cluster.peer_errors",
		"engine.bandwidth_reduction", "engine.mem_words", "engine.idct_ops",
	}
	if workload != "cluster-fetch" {
		names = append(names, "server.write_errors", "cluster.peer_calls_per_fetch")
	}
	return names
}

// TestExactMetricsRepeat runs every workload twice with one seed: R,
// the worst MSE and every counter-based layer metric must repeat
// exactly.
func TestExactMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			a, b := short(t, w, 7, false), short(t, w, 7, false)
			for _, name := range []string{"compression_ratio", "worst_mse"} {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			a, b = short(t, w, 7, true), short(t, w, 7, true)
			for name := range units {
				if _, ok := a.Metrics[name]; !ok && !slices.Contains(endToEnd, name) {
					t.Errorf("traced run lacks %s", name)
				}
			}
			for _, name := range exactLayer(w) {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			if w == "cluster-fetch" {
				// Every fetch of the pass goes through a non-owner.
				for _, name := range []string{"cluster.forwarded", "cluster.peer_fills"} {
					if got := a.Metrics[name].Value; got != 2*fetchNames {
						t.Errorf("%s = %v, want %d", name, got, 2*fetchNames)
					}
				}
			}
		})
	}
}

// TestCheckersRejectOneFlippedByte flips one byte of a served body and
// of a served image: both checks must fail.
func TestCheckersRejectOneFlippedByte(t *testing.T) {
	w := &imageGet{}
	if err := w.prepare(3, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	want := w.set.wires[0]
	lc := &loadClient{buf: make([]byte, len(want)), n: len(want)}
	copy(lc.buf, want)
	if err := checkBody(lc, "img", want); err != nil {
		t.Fatalf("intact body rejected: %v", err)
	}
	lc.buf[len(want)/2] ^= 0x01
	if checkBody(lc, "img", want) == nil {
		t.Fatal("body with one flipped byte accepted")
	}

	ref := &reference{wire: want}
	bad := bytes.Clone(want)
	bad[len(bad)-1] ^= 0x80
	resp := &client.BatchResponse{ImageB64: base64.StdEncoding.EncodeToString(want)}
	if err := sameImage(resp, ref); err != nil {
		t.Fatalf("intact image rejected: %v", err)
	}
	resp.ImageB64 = base64.StdEncoding.EncodeToString(bad)
	if sameImage(resp, ref) == nil {
		t.Fatal("image with one flipped byte accepted")
	}
}

// TestRecalWarmUpHoldsEveryMachine: each round's warm-up must send
// every machine of the mix once.
func TestRecalWarmUpHoldsEveryMachine(t *testing.T) {
	w := &recal{}
	if err := w.prepare(9, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	want := slices.Compact(slices.Sorted(slices.Values(recalMix[:])))
	for n := int64(1); n <= 4; n++ {
		var got []string
		for _, k := range w.warmIndices(n) {
			got = append(got, w.lib(k).machine)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("warm-up %d sends %v, want %v", n, got, want)
		}
	}
}
