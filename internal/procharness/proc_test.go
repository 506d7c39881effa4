package procharness

import (
	"context"
	"testing"
	"time"

	"compaqt/client"
)

// peerStatus reads observer's ring view once and returns its entry for
// peer; a failed read or a missing entry reports false.
func peerStatus(observer *procNode, peer string) (client.PeerStatus, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	v, err := observer.cl.ClusterView(ctx)
	if err != nil {
		return client.PeerStatus{}, false
	}
	for _, p := range v.Peers {
		if p.URL == peer {
			return p, true
		}
	}
	return client.PeerStatus{}, false
}

// peerDown reads observer's ring view once and reports whether it
// holds peer down; a failed read reports false.
func peerDown(observer *procNode, peer string) bool {
	p, ok := peerStatus(observer, peer)
	return ok && !p.Alive
}

// waitPeerDown polls observer's ring view every 10ms, well inside one
// 100ms gossip interval, until peer is no longer believed alive.
func waitPeerDown(t *testing.T, observer *procNode, peer string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if peerDown(observer, peer) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never saw %s go down", observer.name, peer)
}

// TestProcClusterKillRejoinConverges is the tentpole chaos proof with
// real processes and no fault injection: three compaqt-serve nodes
// form a cluster via gossip, one is SIGKILLed, the survivors keep
// compiling (their publishes to the corpse fail), the victim restarts
// on the same address and store, and the cluster converges back to
// serving every image byte-identically from any node, every image on
// both its replicas, with zero recompiles.
func TestProcClusterKillRejoinConverges(t *testing.T) {
	initialN, extraN := 6, 4
	if testing.Short() {
		initialN, extraN = 4, 2
	}
	names, wantBytes, specSets := procShapes(t, initialN+extraN)

	urls := freeURLs(t, 3)
	nodes := make([]*procNode, 3)
	opts := make([]nodeOpts, 3)
	for i := range nodes {
		opts[i] = nodeOpts{
			name:  "proc-node" + string(rune('0'+i)),
			self:  urls[i],
			store: t.TempDir(),
			repl:  2,
		}
		if i > 0 {
			opts[i].join = []string{urls[0]}
		}
		nodes[i] = startNode(t, opts[i])
	}
	for _, n := range nodes {
		waitHealthy(t, n)
	}
	waitConverged(t, nodes, 3, 20*time.Second)

	// Compile the initial shapes on the two nodes that survive the
	// kill, so compile counters are never lost with the victim and the
	// cluster-wide zero-recompile sum stays checkable.
	for i := 0; i < initialN; i++ {
		compileVia(t, nodes[i%2], names[i], specSets[i], wantBytes[i])
	}
	if errs := sweep(t, nodes, names[:initialN], wantBytes[:initialN]); errs != 0 {
		t.Fatalf("healthy cluster: %d GET errors during sweep", errs)
	}

	// Kill node2 outright and keep compiling on the survivors. Any
	// publish aimed at the corpse fails; repair catches it up later.
	killed := time.Now()
	nodes[2].kill()
	waitPeerDown(t, nodes[0], urls[2])
	waitPeerDown(t, nodes[1], urls[2])
	t.Logf("SIGKILL detection: %v until both survivors saw node2 down", time.Since(killed))
	for i := initialN; i < initialN+extraN; i++ {
		compileVia(t, nodes[i%2], names[i], specSets[i], wantBytes[i])
	}
	if errs := sweep(t, nodes[:2], names, wantBytes); errs != 0 {
		t.Fatalf("degraded cluster: %d GET errors from survivors", errs)
	}

	// Restart the victim on the same address and store. -join points
	// at node0; gossip re-learns the table, and anti-entropy repair
	// streams in every binding the rejoined node owns and missed.
	nodes[2] = startNode(t, opts[2])
	waitHealthy(t, nodes[2])
	answered := time.Now()
	waitConverged(t, nodes, 3, 20*time.Second)
	t.Logf("re-admission: %v from the restarted node's /healthz answering until every view agreed", time.Since(answered))

	deadline := time.Now().Add(30 * time.Second)
	for {
		errs := sweep(t, nodes, names, wantBytes)
		have := holders(t, nodes, names)
		short := 0
		for _, name := range names {
			if have[name] < 2 {
				short++
			}
		}
		if errs == 0 && short == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no convergence: sweep errors=%d under-replicated=%d",
				errs, short)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Zero recompiles: the rejoined node compiled nothing, and the
	// cluster-wide compile total is exactly the requests we issued.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	st, err := nodes[2].cl.Stats(ctx)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if st.Compile.Calls != 0 {
		t.Fatalf("rejoined node recompiled: %d compile calls, want 0", st.Compile.Calls)
	}
	calls := clusterCompiles(t, nodes)
	if want := uint64(initialN + extraN); calls != want {
		t.Fatalf("cluster compiled %d times, want exactly %d (zero recompiles)", calls, want)
	}
}
