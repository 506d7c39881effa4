//go:build faultinject

package procharness

import (
	"context"
	"fmt"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestProcClusterChaosPartitionHeals runs three real compaqt-serve
// processes whose peer transports are seeded fault injectors
// (COMPAQT_PEER_FAULTS): connection resets, 503s and truncated bodies
// rain on every inter-node call while the cluster forms, serves and
// survives a SIGSTOP partition. The invariant under fire is zero
// corruption — a GET either errors or returns byte-identical image
// bytes, never wrong ones. Then SIGCONT + SIGUSR1 stop the chaos in
// place and the cluster must heal completely: every node alive in
// every view, every image served byte-identically from every node and
// held by both its replicas, no recompiles anywhere.
func TestProcClusterChaosPartitionHeals(t *testing.T) {
	shapesN, extraN := 4, 2
	if testing.Short() {
		shapesN, extraN = 3, 1
	}
	names, wantBytes, specSets := procShapes(t, shapesN+extraN)

	urls := freeURLs(t, 3)
	nodes := make([]*procNode, 3)
	for i := range nodes {
		o := nodeOpts{
			name:  "chaos-node" + string(rune('0'+i)),
			self:  urls[i],
			store: t.TempDir(),
			repl:  2,
			env: []string{fmt.Sprintf(
				"COMPAQT_PEER_FAULTS=seed=%d,reset=0.03,p503=0.03,trunc=0.02", 101+i)},
		}
		if i > 0 {
			o.join = []string{urls[0]}
		}
		nodes[i] = startNode(t, o)
	}
	for _, n := range nodes {
		waitHealthy(t, n)
	}
	// Gossip rounds can fail to injected faults; the 100ms cadence
	// still converges well inside the budget.
	waitConverged(t, nodes, 3, 30*time.Second)

	// Compile on the eventual survivors only, so compile counters are
	// never lost to the partition and the zero-recompile sum holds.
	for i := 0; i < shapesN; i++ {
		compileVia(t, nodes[i%2], names[i], specSets[i], wantBytes[i])
	}
	// Sweep under fire: errors are tolerable, corruption never is
	// (sweep fails the test on a byte mismatch).
	errs := sweep(t, nodes, names[:shapesN], wantBytes[:shapesN])
	t.Logf("sweep under active faults: %d transient errors, zero corruption", errs)

	// Partition node2 with SIGSTOP — the process is alive but frozen,
	// the nastiest failure mode: connections accept and then hang.
	// Wait until both survivors' gossip has marked it down (a round
	// with it runs out its 1s bound) so forwards stop routing at the
	// frozen socket. The wait times the freeze only if node2 was up in
	// both views before the signal and the suspicion then came from a
	// round that ran out that bound (frozenOut): an injected fault (a
	// reset, a 503) on an exchange with node2 marks it down well inside
	// the bound.
	early := peerDown(nodes[0], urls[2]) || peerDown(nodes[1], urls[2])
	stopped := time.Now()
	nodes[2].signal(t, syscall.SIGSTOP)
	waitPeerDown(t, nodes[0], urls[2])
	waitPeerDown(t, nodes[1], urls[2])
	detected := time.Since(stopped)
	frozen, lastErrs := frozenOut(nodes[:2], urls[2])
	switch {
	case early:
		t.Logf("SIGSTOP detection: not measured, a survivor held node2 down before the signal")
	case !frozen:
		t.Logf("SIGSTOP detection: not measured, an injected fault marked node2 down first (last errors %q)", lastErrs)
	default:
		t.Logf("SIGSTOP detection: %v until both survivors saw node2 down", detected)
	}

	for i := shapesN; i < shapesN+extraN; i++ {
		compileVia(t, nodes[i%2], names[i], specSets[i], wantBytes[i])
	}
	errs = sweep(t, nodes[:2], names, wantBytes)
	t.Logf("survivor sweep during partition: %d transient errors, zero corruption", errs)

	// Heal: wake the frozen node, then stop fault injection everywhere
	// (SIGUSR1) without restarting a single process.
	continued := time.Now()
	nodes[2].signal(t, syscall.SIGCONT)
	for _, n := range nodes {
		n.signal(t, syscall.SIGUSR1)
	}
	waitConverged(t, nodes, 3, 30*time.Second)
	t.Logf("re-admission: %v from SIGCONT until every view agreed", time.Since(continued))

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
			t.Fatalf("no full heal: sweep errors=%d under-replicated=%d",
				errs, short)
		}
		time.Sleep(200 * time.Millisecond)
	}

	calls := clusterCompiles(t, nodes)
	if want := uint64(shapesN + extraN); calls != want {
		t.Fatalf("cluster compiled %d times, want exactly %d (zero recompiles)", calls, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	st, err := nodes[2].cl.Stats(ctx)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if st.Compile.Calls != 0 {
		t.Fatalf("partitioned node recompiled: %d compile calls, want 0", st.Compile.Calls)
	}
}

// frozenOut reports whether the survivors hold peer down because it is
// frozen, and the last errors it read for peer. A frozen peer fails a
// gossip round only by running out the round's bound, so each
// survivor's last error must be that deadline, or empty where the
// suspicion reached it by the other survivor's gossip, which records
// no error of its own; and at least one must be the deadline.
func frozenOut(survivors []*procNode, peer string) (bool, []string) {
	var errs []string
	frozen, timedOut := true, false
	for _, n := range survivors {
		p, ok := peerStatus(n, peer)
		errs = append(errs, p.LastError)
		switch {
		case !ok:
			frozen = false
		case strings.Contains(p.LastError, context.DeadlineExceeded.Error()):
			timedOut = true
		case p.LastError != "":
			frozen = false
		}
	}
	return frozen && timedOut, errs
}
