//go:build faultinject

// Cluster chaos: the 3-node harness from cluster_test.go re-run with a
// seeded lossy transport under every inter-peer client — resets, 503s
// and truncated bodies on forwards, publishes and gossip alike.
// The invariants mirror the single-node chaos suite: no corruption
// ever (a forwarded GET either fails visibly or delivers exactly the
// in-process compile's bytes), a bounded client-visible failure rate
// while faults rage (peer retries, successor fallback and fast
// gossip absorb them), and full cluster-wide success once the
// faults stop.
package server

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compaqt/client"
	"compaqt/internal/faults"
)

func TestClusterChaosLossyPeers(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { clusterChaosRun(t, seed) })
	}
}

func clusterChaosRun(t *testing.T, seed uint64) {
	// One shared lossy transport under all three nodes' peer clients:
	// ~5% of inter-peer attempts reset, answer 503, or truncate
	// mid-body. Client-facing traffic stays clean — the point is what
	// the cluster does to itself, not the client's retry layer.
	rt := faults.NewRoundTripper(nil, faults.HTTPConfig{
		Seed:         seed,
		ResetProb:    0.02,
		Prob503:      0.02,
		TruncateProb: 0.01,
		RetryAfter:   1,
	})
	nodes := startClusterNodes(t, 3, 2, func(i int, cfg *Config) {
		cfg.Cluster.Transport = rt
		// Gossip fast: a fault-marked-down peer heals within
		// milliseconds, so down-states stay transient the way they
		// would under a production gossip loop, just accelerated.
		cfg.Cluster.GossipInterval = 5 * time.Millisecond
	})
	const shapes = 8
	names, wantBytes, specSets := clusterShapes(t, shapes)
	ctx := context.Background()

	// Compile on owners through the faulty fabric: publishes to the
	// replica peer ride the lossy transport and are allowed to fail —
	// the GET fallback walk must cover the gaps.
	owners := make([]int, shapes)
	for s := range names {
		owners[s] = ownerOf(t, nodes, names[s])
		compileOn(t, nodes[owners[s]], names[s], specSets[s], wantBytes[s])
	}

	clients, iters := 60, 4
	if testing.Short() {
		clients, iters = 24, 3
	}
	var ops, fails, corrupt atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(nodes[c%len(nodes)].url)
			for i := 0; i < iters; i++ {
				s := (c + i) % shapes
				ops.Add(1)
				b, err := cl.ImageRaw(ctx, names[s])
				if err != nil {
					// Any error is a visible failure — including a 404
					// minted by a transient everyone-is-down view.
					fails.Add(1)
					continue
				}
				if !bytes.Equal(b, wantBytes[s]) {
					corrupt.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	// Invariant 1: zero corruption. Truncated or reset peer bodies must
	// never surface as a successful GET with wrong bytes.
	if n := corrupt.Load(); n != 0 {
		t.Fatalf("%d corrupted images reached clients through the lossy fabric", n)
	}
	// Invariant 2: bounded failures. Peer-level retries, the successor
	// walk and fast gossip keep the visible failure rate low even
	// though every inter-peer attempt runs a ~5% gauntlet.
	total, failed := ops.Load(), fails.Load()
	if total == 0 {
		t.Fatal("chaos run issued no operations")
	}
	if rate := float64(failed) / float64(total); rate > 0.05 {
		t.Fatalf("failed GETs %d/%d (%.2f%%), want <= 5%%", failed, total, 100*rate)
	}
	t.Logf("seed %d: ops %d, failed %d, injected faults %d", seed, total, failed, rt.Injected())

	// Faults cease; heal liveness deterministically and demand full
	// cluster-wide success with byte identity.
	rt.Stop()
	for _, n := range nodes {
		gossipRotation(ctx, n.srv.cluster)
	}
	for s, name := range names {
		for _, n := range nodes {
			b, err := n.cl.ImageRaw(ctx, name)
			if err != nil {
				t.Fatalf("post-chaos GET %q from %s: %v", name, n.url, err)
			}
			if !bytes.Equal(b, wantBytes[s]) {
				t.Fatalf("post-chaos GET %q from %s: bytes differ", name, n.url)
			}
		}
	}
}
