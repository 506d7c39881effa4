// Self-healing tier tests over real HTTP listeners: gossip join (the
// -join flag's path) growing a cluster from one seed, anti-entropy
// repair streaming a joining node's shard and restoring a publish a
// restarted replica missed, hinted handoff replaying a missed publish
// (and a rebind repair alone would roll back) after a restart, a hint
// log that is durable from a node's first start, and the scope=cluster
// stats fan-out.
// Gossip, probing and repair are all driven explicitly so every
// convergence step is one the test caused.
package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"net"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"compaqt/client"
	"compaqt/internal/cluster"
)

// startJoinNode boots one member that knows only itself and the given
// gossip seeds — the -join bootstrap, as opposed to the full member
// list startClusterNode wires.
func startJoinNode(t *testing.T, self string, join []string, repl int, storeDir string) *clusterNode {
	t.Helper()
	ln, err := net.Listen("tcp", self[len("http://"):])
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Parallelism:    2,
		StoreDir:       storeDir,
		RepairInterval: -1,
		Cluster: cluster.Config{
			Self:           self,
			Peers:          join,
			Replication:    repl,
			ProbeInterval:  -1,
			GossipInterval: -1,
		},
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Listener.Close()
	hs.Listener = ln
	hs.Start()
	node := &clusterNode{srv: srv, hs: hs, cl: client.New(self), url: self}
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return node
}

// reserveURLs pre-binds n listeners just long enough to learn free
// addresses, then releases them for the join nodes to claim.
func reserveURLs(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		urls[i] = "http://" + ln.Addr().String()
		ln.Close()
	}
	return urls
}

// gossipUntilConverged drives explicit gossip rounds until every node
// knows every member and believes it alive, or the deadline passes.
func gossipUntilConverged(t *testing.T, nodes []*clusterNode) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		converged := true
		for _, n := range nodes {
			n.srv.cluster.GossipOnce(ctx)
			members, _, _ := n.srv.cluster.View()
			live := 0
			for _, m := range members {
				if m.Alive {
					live++
				}
			}
			if len(members) != len(nodes) || live != len(nodes) {
				converged = false
			}
		}
		if converged {
			return
		}
	}
	for _, n := range nodes {
		members, _, _ := n.srv.cluster.View()
		t.Logf("%s sees %d members", n.url, len(members))
	}
	t.Fatal("gossip never converged to full live membership")
}

// TestClusterJoinViaGossip grows a 3-node cluster from one seed: node 0
// starts alone, the others join with only node 0's URL, and gossip
// spreads the full table. The converged tier then serves any image from
// any node — the PR 9 contract, reached without a static peer list.
func TestClusterJoinViaGossip(t *testing.T) {
	urls := reserveURLs(t, 3)
	nodes := []*clusterNode{
		startJoinNode(t, urls[0], nil, 2, ""),
		startJoinNode(t, urls[1], []string{urls[0]}, 2, ""),
		startJoinNode(t, urls[2], []string{urls[0]}, 2, ""),
	}
	gossipUntilConverged(t, nodes)

	// Rings agree: every node computes the same replica set per name.
	names, wantBytes, specSets := clusterShapes(t, 4)
	for _, name := range names {
		owners := 0
		for _, n := range nodes {
			if n.srv.cluster.Owns(name) {
				owners++
			}
		}
		if owners != 2 {
			t.Fatalf("%q has %d owners after convergence, want replication 2", name, owners)
		}
	}

	ctx := context.Background()
	for s := range names {
		compileOn(t, nodes[ownerOf(t, nodes, names[s])], names[s], specSets[s], wantBytes[s])
	}
	for s, name := range names {
		for _, n := range nodes {
			b, err := n.cl.ImageRaw(ctx, name)
			if err != nil {
				t.Fatalf("GET %q from joined node %s: %v", name, n.url, err)
			}
			if !bytes.Equal(b, wantBytes[s]) {
				t.Fatalf("GET %q from joined node %s: bytes differ", name, n.url)
			}
		}
	}
}

// TestGossipEndpointRejectsSelf pins the wiring guard at the HTTP
// layer: a gossip exchange claiming to come from the receiver itself is
// a 400, not a table merge.
func TestGossipEndpointRejectsSelf(t *testing.T) {
	nodes := startClusterNodes(t, 2, 1, nil)
	_, err := nodes[0].cl.Gossip(context.Background(), client.GossipRequest{From: nodes[0].url})
	var apiErr *client.APIError
	if err == nil || !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("self-gossip = %v, want a 400 API error", err)
	}
}

// TestClusterRepairStreamsJoinedShard is the anti-entropy proof: a node
// that joins after the corpus was compiled pulls exactly the shard it
// owns from the current holders — validated, written through,
// zero compiles.
func TestClusterRepairStreamsJoinedShard(t *testing.T) {
	urls := reserveURLs(t, 3)
	const shapes = 6
	names, wantBytes, specSets := clusterShapes(t, shapes)

	// The late joiner is the reserved URL that owns the most names on
	// the ring over all three: six names over three members leave it at
	// least two, whatever ports were drawn.
	ring, err := cluster.NewRing(urls, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ownedBy := map[string]int{}
	for _, name := range names {
		owner, _ := ring.Owner(cluster.KeyFor(name), nil)
		ownedBy[owner]++
	}
	last := 0
	for i, u := range urls {
		if ownedBy[u] > ownedBy[urls[last]] {
			last = i
		}
	}
	urls[last], urls[2] = urls[2], urls[last]

	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	nodes := []*clusterNode{
		startJoinNode(t, urls[0], nil, 1, dirs[0]),
		startJoinNode(t, urls[1], []string{urls[0]}, 1, dirs[1]),
	}
	gossipUntilConverged(t, nodes)
	for s := range names {
		compileOn(t, nodes[ownerOf(t, nodes, names[s])], names[s], specSets[s], wantBytes[s])
	}

	// The third node joins late: it owns a slice of the ring but holds
	// nothing.
	late := startJoinNode(t, urls[2], []string{urls[0]}, 1, dirs[2])
	nodes = append(nodes, late)
	gossipUntilConverged(t, nodes)

	owned := 0
	for _, name := range names {
		if late.srv.cluster.Owns(name) {
			owned++
		}
	}
	if owned != ownedBy[urls[2]] {
		t.Fatalf("late joiner owns %d names, want the %d the three-member ring gives it", owned, ownedBy[urls[2]])
	}

	repaired := late.srv.RepairOnce(context.Background())
	if repaired != owned {
		t.Fatalf("RepairOnce repaired %d images, want the %d the node owns", repaired, owned)
	}
	// A second round is a no-op: repair converged.
	if again := late.srv.RepairOnce(context.Background()); again != 0 {
		t.Fatalf("second RepairOnce pulled %d more images, want 0", again)
	}
	if st := late.srv.cluster.Counters(); st.Repairs != uint64(owned) {
		t.Fatalf("repairs counter = %d, want %d", st.Repairs, owned)
	}
	// The repaired shard serves locally, byte-identical, with zero
	// compiles and zero forwards for owned names.
	ctx := context.Background()
	for s, name := range names {
		if !late.srv.cluster.Owns(name) {
			continue
		}
		b, err := late.cl.ImageRaw(ctx, name)
		if err != nil {
			t.Fatalf("GET repaired %q: %v", name, err)
		}
		if !bytes.Equal(b, wantBytes[s]) {
			t.Fatalf("repaired %q: bytes differ from the in-process compile", name)
		}
	}
	if got := late.srv.m.compileCalls.Load(); got != 0 {
		t.Errorf("late joiner compiled %d times, want 0 (repair streams, never recompiles)", got)
	}
	if st := late.srv.cluster.Counters(); st.Forwarded != 0 {
		t.Errorf("late joiner forwarded %d GETs for its own shard, want 0", st.Forwarded)
	}
}

// TestClusterHintedHandoffReplaysAfterRestart kills a replica, compiles
// through the outage (the publish to the dead member becomes a hint),
// restarts the member on its old address, and proves the hint replay
// delivers the missed image — the restarted node serves it from local
// state without recompiling.
func TestClusterHintedHandoffReplaysAfterRestart(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	withStores := func(i int, cfg *Config) { cfg.StoreDir = dirs[i] }
	nodes := startClusterNodes(t, 3, 2, withStores)
	names, wantBytes, specSets := clusterShapes(t, 6)
	ctx := context.Background()

	// Pick a name whose replica set contains two distinct non-self
	// nodes: compile on one, kill the other, so the publish must cross
	// the wire to a dead member.
	pick, compiler, victim := -1, -1, -1
	for s, name := range names {
		var owners []int
		for i, n := range nodes {
			if n.srv.cluster.Owns(name) {
				owners = append(owners, i)
			}
		}
		if len(owners) == 2 {
			pick, compiler, victim = s, owners[0], owners[1]
			break
		}
	}
	if pick < 0 {
		t.Fatal("no name with a 2-node replica set; the ring lost replication")
	}

	self := nodes[victim].url
	peers := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	nodes[victim].kill()
	compileOn(t, nodes[compiler], names[pick], specSets[pick], wantBytes[pick])

	st := nodes[compiler].srv.cluster.Counters()
	if st.Hinted == 0 || st.HintsPending == 0 {
		t.Fatalf("publish through the outage queued no hint: %+v", st)
	}

	// Restart the victim on its old address and heal it from the
	// compiler's perspective; the background replay delivers the hint.
	ln, err := net.Listen("tcp", self[len("http://"):])
	if err != nil {
		t.Fatalf("re-binding %s: %v", self, err)
	}
	restarted := startClusterNode(t, ln, self, peers, 2, victim, withStores)
	nodes[compiler].srv.cluster.Probe(ctx)
	nodes[compiler].srv.cluster.FlushHints(ctx)

	deadline := time.Now().Add(20 * time.Second)
	for {
		if st := nodes[compiler].srv.cluster.Counters(); st.HintsPending == 0 && st.HintsReplayed > 0 {
			break
		}
		if time.Now().After(deadline) {
			st := nodes[compiler].srv.cluster.Counters()
			t.Fatalf("hint never replayed: pending=%d replayed=%d", st.HintsPending, st.HintsReplayed)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The restarted node now holds the missed image locally: it serves
	// the exact bytes with zero compiles and zero forwards.
	b, err := restarted.cl.ImageRaw(ctx, names[pick])
	if err != nil {
		t.Fatalf("GET hinted image from restarted node: %v", err)
	}
	if !bytes.Equal(b, wantBytes[pick]) {
		t.Fatal("hinted image bytes differ from the in-process compile")
	}
	if got := restarted.srv.m.compileCalls.Load(); got != 0 {
		t.Errorf("restarted node compiled %d times, want 0", got)
	}
	if st := restarted.srv.cluster.Counters(); st.Forwarded != 0 {
		t.Errorf("restarted node forwarded %d GETs for a hinted image, want 0", st.Forwarded)
	}
}

// TestClusterRepairRestoresMissedPublishAfterRestart kills a replica,
// compiles through the outage (the publish to the dead member fails and
// is counted), restarts the member on its old address, and proves that
// one anti-entropy round on the restarted node restores the missed
// image: it then serves it from local state without recompiling or
// forwarding.
func TestClusterRepairRestoresMissedPublishAfterRestart(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	withStores := func(i int, cfg *Config) { cfg.StoreDir = dirs[i] }
	nodes := startClusterNodes(t, 3, 2, withStores)
	names, wantBytes, specSets := clusterShapes(t, 6)
	ctx := context.Background()

	// Pick a name whose replica set contains two distinct non-self
	// nodes: compile on one, kill the other, so the publish must cross
	// the wire to a dead member.
	pick, compiler, victim := -1, -1, -1
	for s, name := range names {
		var owners []int
		for i, n := range nodes {
			if n.srv.cluster.Owns(name) {
				owners = append(owners, i)
			}
		}
		if len(owners) == 2 {
			pick, compiler, victim = s, owners[0], owners[1]
			break
		}
	}
	if pick < 0 {
		t.Fatal("no name with a 2-node replica set; the ring lost replication")
	}

	self := nodes[victim].url
	peers := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	nodes[victim].kill()
	compileOn(t, nodes[compiler], names[pick], specSets[pick], wantBytes[pick])
	if st := nodes[compiler].srv.cluster.Counters(); st.PeerErrors == 0 {
		t.Fatalf("publish to the dead replica counted no peer error: %+v", st)
	}

	// Restart the victim on its old address and store; its first repair
	// round pulls the publish it missed from the compiler.
	ln, err := net.Listen("tcp", self[len("http://"):])
	if err != nil {
		t.Fatalf("re-binding %s: %v", self, err)
	}
	restarted := startClusterNode(t, ln, self, peers, 2, victim, withStores)
	if n := restarted.srv.RepairOnce(ctx); n != 1 {
		t.Fatalf("RepairOnce on the restarted node repaired %d images, want the 1 publish it missed", n)
	}

	// The restarted node now holds the missed image locally: it serves
	// the exact bytes with zero compiles and zero forwards.
	b, err := restarted.cl.ImageRaw(ctx, names[pick])
	if err != nil {
		t.Fatalf("GET repaired image from restarted node: %v", err)
	}
	if !bytes.Equal(b, wantBytes[pick]) {
		t.Fatal("repaired image bytes differ from the in-process compile")
	}
	if got := restarted.srv.m.compileCalls.Load(); got != 0 {
		t.Errorf("restarted node compiled %d times, want 0", got)
	}
	if st := restarted.srv.cluster.Counters(); st.Forwarded != 0 {
		t.Errorf("restarted node forwarded %d GETs for a repaired image, want 0", st.Forwarded)
	}
}

// TestClusterRebindDuringOutageSurvivesRepair pins the rebind case of
// catch-up. Both owners hold a name; one is killed, the name is
// recompiled from a different batch on the surviving owner, and the
// killed owner restarts on its old store, still bound to the old
// digest. Repair compares digests, not versions (ROADMAP item 1), so a
// survivor repair round that runs first would find the old digest on
// the restarted owner, see that it lacks it, and pull it back over the
// new binding. The hint queued for the restarted owner is what prevents
// that: the survivor's probe heals it and the replay rebinds it before
// either owner repairs. Repair then runs on the survivor first, and
// every node must end on the new bytes.
func TestClusterRebindDuringOutageSurvivesRepair(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	withStores := func(i int, cfg *Config) { cfg.StoreDir = dirs[i] }
	nodes := startClusterNodes(t, 3, 2, withStores)
	names, wantBytes, specSets := clusterShapes(t, 6)
	ctx := context.Background()

	pick, survivor, victim, other := -1, -1, -1, -1
	for s, name := range names {
		var owners []int
		for i, n := range nodes {
			if n.srv.cluster.Owns(name) {
				owners = append(owners, i)
			}
		}
		if len(owners) == 2 {
			pick, survivor, victim = s, owners[0], owners[1]
			break
		}
	}
	if pick < 0 {
		t.Fatal("no name with a 2-node replica set; the ring lost replication")
	}
	for i := range nodes {
		if i != survivor && i != victim {
			other = i
		}
	}
	name := names[pick]
	compileOn(t, nodes[survivor], name, specSets[pick], wantBytes[pick])
	if b, err := nodes[victim].cl.ImageRaw(ctx, name); err != nil || !bytes.Equal(b, wantBytes[pick]) {
		t.Fatalf("second owner does not hold the first binding (err %v)", err)
	}

	self := nodes[victim].url
	peers := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	nodes[victim].kill()
	resp, err := nodes[survivor].cl.CompileBatch(ctx, client.BatchRequest{
		Image:        name,
		Pulses:       specSets[(pick+1)%len(specSets)],
		IncludeImage: true,
	})
	if err != nil {
		t.Fatalf("rebind %q: %v", name, err)
	}
	rebound, err := base64.StdEncoding.DecodeString(resp.ImageB64)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(rebound, wantBytes[pick]) {
		t.Fatal("the rebind compiled the old bytes; the test needs a different image")
	}

	ln, err := net.Listen("tcp", self[len("http://"):])
	if err != nil {
		t.Fatalf("re-binding %s: %v", self, err)
	}
	restarted := startClusterNode(t, ln, self, peers, 2, victim, withStores)
	nodes[survivor].srv.cluster.Probe(ctx)
	nodes[survivor].srv.cluster.FlushHints(ctx)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if st := nodes[survivor].srv.cluster.Counters(); st.HintsPending == 0 && st.HintsReplayed > 0 {
			break
		}
		if time.Now().After(deadline) {
			st := nodes[survivor].srv.cluster.Counters()
			t.Fatalf("hint never replayed: pending=%d replayed=%d", st.HintsPending, st.HintsReplayed)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if n := nodes[survivor].srv.RepairOnce(ctx); n != 0 {
		t.Errorf("surviving owner repaired %d images, want 0 (it holds the newest binding)", n)
	}
	restarted.srv.RepairOnce(ctx)
	nodes[other].srv.RepairOnce(ctx)
	for _, n := range []*clusterNode{nodes[survivor], restarted, nodes[other]} {
		b, err := n.cl.ImageRaw(ctx, name)
		if err != nil {
			t.Fatalf("GET %q from %s: %v", name, n.url, err)
		}
		if !bytes.Equal(b, rebound) {
			t.Errorf("%s serves the old binding of %q after repair, want the rebind", n.url, name)
		}
	}
}

// TestStatsScopeCluster exercises the aggregated stats fan-out: every
// live member contributes a slot, totals add up, and a dead member
// costs exactly one error slot — never the whole view.
func TestStatsScopeCluster(t *testing.T) {
	nodes := startClusterNodes(t, 3, 2, nil)
	names, wantBytes, specSets := clusterShapes(t, 2)
	ctx := context.Background()
	for s := range names {
		compileOn(t, nodes[ownerOf(t, nodes, names[s])], names[s], specSets[s], wantBytes[s])
	}

	resp, err := nodes[0].cl.StatsCluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Self != nodes[0].url || len(resp.Peers) != 3 {
		t.Fatalf("scope=cluster from %s: self=%s peers=%d", nodes[0].url, resp.Self, len(resp.Peers))
	}
	if resp.Totals.Nodes != 3 || resp.Totals.Errors != 0 {
		t.Fatalf("healthy totals = %+v, want 3 nodes, 0 errors", resp.Totals)
	}
	if resp.Totals.CompileCalls == 0 {
		t.Fatal("cluster totals counted no compiles after compiling")
	}
	selfSlots := 0
	for _, p := range resp.Peers {
		if p.Self {
			selfSlots++
			if p.URL != nodes[0].url {
				t.Fatalf("self slot URL = %s, want %s", p.URL, nodes[0].url)
			}
		}
		if p.Error == "" && p.Stats == nil {
			t.Fatalf("slot %s has neither stats nor an error", p.URL)
		}
	}
	if selfSlots != 1 {
		t.Fatalf("%d self slots, want 1", selfSlots)
	}

	// Kill one member: its slot degrades to an error, the rest of the
	// view stands.
	nodes[2].kill()
	resp, err = nodes[0].cl.StatsCluster(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Totals.Nodes != 2 || resp.Totals.Errors != 1 {
		t.Fatalf("post-kill totals = %+v, want 2 nodes, 1 error", resp.Totals)
	}
	for _, p := range resp.Peers {
		if p.URL == nodes[2].url && p.Error == "" {
			t.Fatal("dead member's slot carries no error")
		}
	}
}

// TestClusterHintLogDurableFromFirstStart lays a node out as
// compaqt-serve does, with the hint log at <store-dir>/HINTS, on a
// store directory that does not exist yet. The log must be on disk
// from the first start: a hint queued then survives a restart.
func TestClusterHintLogDurableFromFirstStart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	down := "http://" + ln.Addr().String()
	ln.Close() // the peer refuses every connection
	dir := filepath.Join(t.TempDir(), "store")
	cfg := Config{
		Parallelism:    1,
		StoreDir:       dir,
		RepairInterval: -1,
		Cluster: cluster.Config{
			Self:           "http://self.invalid:1",
			Peers:          []string{down},
			Replication:    2,
			ProbeInterval:  -1,
			GossipInterval: -1,
			HintPath:       filepath.Join(dir, "HINTS"),
		},
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Cluster().PublishImage(context.Background(), "img", []byte("wire"))
	if st := srv.Cluster().Counters(); st.HintsPending != 1 || st.HintWriteErrors != 0 {
		t.Fatalf("first start: hints pending=%d write errors=%d, want 1, 0", st.HintsPending, st.HintWriteErrors)
	}
	srv.Close()

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	if st := srv2.Cluster().Counters(); st.HintsPending != 1 {
		t.Fatalf("restart found %d hints on disk, want 1", st.HintsPending)
	}
}
