// Self-healing tier tests over real HTTP listeners: gossip join (the
// -join flag's path) growing a cluster from one seed; anti-entropy
// repair streaming a joining node's shard, restoring a publish a
// restarted replica missed, and bringing every replica and fill to the
// newest binding of a rebound name without ever rolling it back; and
// the scope=cluster stats fan-out.
// Gossip and repair are driven explicitly so every convergence
// step is one the test caused, except where a test checks the
// background repair loop itself.
package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
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

// cutTransport is one node's peer transport across a 2|2 split: while
// cut is set it refuses every request to a node of the other half.
type cutTransport struct {
	half map[string]int // member host -> half
	from int
	cut  *atomic.Bool
}

func (t cutTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.cut.Load() && t.half[r.URL.Host] != t.from {
		if r.Body != nil {
			r.Body.Close()
		}
		return nil, fmt.Errorf("dial %s: partitioned", r.URL.Host)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestClusterGossipHealsSplitPartition: gossip alone heals a split that
// outlasts any suspicion. Four nodes split 2|2 and gossip until each
// half counts only itself live; once the cut lifts, the rotation
// reaches the suspect members, and every node must count all four
// live within two rotations (six exchanges per node).
func TestClusterGossipHealsSplitPartition(t *testing.T) {
	var cut atomic.Bool
	cut.Store(true)
	half := map[string]int{}
	nodes := startClusterNodes(t, 4, 1, func(i int, cfg *Config) {
		half[strings.TrimPrefix(cfg.Cluster.Self, "http://")] = i / 2
		cfg.Cluster.Transport = cutTransport{half: half, from: i / 2, cut: &cut}
	})
	ctx := context.Background()
	liveCounts := func() []int {
		out := make([]int, len(nodes))
		for i, n := range nodes {
			out[i] = n.srv.cluster.Counters().Live
		}
		return out
	}
	allLive := func(want int) bool {
		for _, l := range liveCounts() {
			if l != want {
				return false
			}
		}
		return true
	}
	round := func() {
		for _, n := range nodes {
			n.srv.cluster.GossipOnce(ctx)
		}
	}

	for r := 0; !allLive(2); r++ {
		if r == 6 {
			t.Fatalf("two rotations under the cut left live counts %v, want 2 on every node", liveCounts())
		}
		round()
	}
	cut.Store(false)
	for r := 1; ; r++ {
		round()
		if allLive(4) {
			t.Logf("healed after %d exchanges per node", r)
			return
		}
		if r == 6 {
			t.Fatalf("two rotations after the cut lifted left live counts %v, want 4 on every node", liveCounts())
		}
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
	pick, compiler, victim := pickOwned(t, nodes, names)

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

// TestClusterRepairLoopCatchesUpRestartedReplica: a replica is killed,
// a name is compiled through the outage, and the replica restarts on
// its old address and store with its background repair loop running.
// Nothing else is driven: no RepairOnce call. The loop alone must pull the missed publish, which
// the restarted node then serves from local state without compiling or
// forwarding.
func TestClusterRepairLoopCatchesUpRestartedReplica(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	withStores := func(i int, cfg *Config) { cfg.StoreDir = dirs[i] }
	nodes := startClusterNodes(t, 3, 2, withStores)
	names, wantBytes, specSets := clusterShapes(t, 6)
	ctx := context.Background()
	pick, compiler, victim := pickOwned(t, nodes, names)

	self := nodes[victim].url
	peers := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	nodes[victim].kill()
	compileOn(t, nodes[compiler], names[pick], specSets[pick], wantBytes[pick])

	ln, err := net.Listen("tcp", self[len("http://"):])
	if err != nil {
		t.Fatalf("re-binding %s: %v", self, err)
	}
	restarted := startClusterNode(t, ln, self, peers, 2, victim, func(i int, cfg *Config) {
		withStores(i, cfg)
		cfg.RepairInterval = 20 * time.Millisecond
	})

	// Wait on the repair counter, not a GET: a GET would forward to the
	// compiler and fill, which is not the catch-up under test.
	deadline := time.Now().Add(20 * time.Second)
	for restarted.srv.cluster.Counters().Repairs == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the restarted node's repair loop never pulled the missed publish: %+v", restarted.srv.cluster.Counters())
		}
		time.Sleep(10 * time.Millisecond)
	}

	b, err := restarted.cl.ImageRaw(ctx, names[pick])
	if err != nil {
		t.Fatalf("GET missed image from restarted node: %v", err)
	}
	if !bytes.Equal(b, wantBytes[pick]) {
		t.Fatal("missed image bytes differ from the in-process compile")
	}
	if got := restarted.srv.m.compileCalls.Load(); got != 0 {
		t.Errorf("restarted node compiled %d times, want 0", got)
	}
	if st := restarted.srv.cluster.Counters(); st.Forwarded != 0 || st.Repairs != 1 {
		t.Errorf("restarted node forwarded %d GETs and repaired %d images, want 0 and the 1 publish it missed", st.Forwarded, st.Repairs)
	}
}

// TestClusterRebindDuringOutageSurvivesRepair pins the rebind case of
// catch-up. Both owners hold a name; one is killed, the name is
// recompiled from a different batch on the surviving owner, and the
// killed owner restarts on its old store, still bound to the old
// binding. The survivor's gossip heals it, and the survivor repairs
// first: it sees the old binding listed, and must keep its own, which
// is newer. The restarted owner's repair then pulls the rebind, and
// every node must end on the new bytes.
func TestClusterRebindDuringOutageSurvivesRepair(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	withStores := func(i int, cfg *Config) { cfg.StoreDir = dirs[i] }
	nodes := startClusterNodes(t, 3, 2, withStores)
	names, wantBytes, specSets := clusterShapes(t, 6)
	ctx := context.Background()

	pick, survivor, victim := pickOwned(t, nodes, names)
	other := 3 - survivor - victim
	name := names[pick]
	compileOn(t, nodes[survivor], name, specSets[pick], wantBytes[pick])
	if b, err := nodes[victim].cl.ImageRaw(ctx, name); err != nil || !bytes.Equal(b, wantBytes[pick]) {
		t.Fatalf("second owner does not hold the first binding (err %v)", err)
	}

	self := nodes[victim].url
	peers := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	nodes[victim].kill()
	rebound := rebindOn(t, nodes[survivor], name, specSets[(pick+1)%len(specSets)], wantBytes[pick])

	ln, err := net.Listen("tcp", self[len("http://"):])
	if err != nil {
		t.Fatalf("re-binding %s: %v", self, err)
	}
	restarted := startClusterNode(t, ln, self, peers, 2, victim, withStores)
	gossipRotation(ctx, nodes[survivor].srv.cluster)

	if n := nodes[survivor].srv.RepairOnce(ctx); n != 0 {
		t.Errorf("surviving owner repaired %d images, want 0 (it holds the newest binding)", n)
	}
	if n := restarted.srv.RepairOnce(ctx); n != 1 {
		t.Errorf("restarted owner repaired %d images, want the 1 rebind it missed", n)
	}
	nodes[other].srv.RepairOnce(ctx)
	expectServed(t, []*clusterNode{nodes[survivor], restarted, nodes[other]}, name, rebound)
}

// rebindOn recompiles name on n from a different batch and returns the
// new bytes, which must differ from old.
func rebindOn(t *testing.T, n *clusterNode, name string, specs []client.PulseSpec, old []byte) []byte {
	t.Helper()
	resp, err := n.cl.CompileBatch(context.Background(), client.BatchRequest{
		Image:        name,
		Pulses:       specs,
		IncludeImage: true,
	})
	if err != nil {
		t.Fatalf("rebind %q on %s: %v", name, n.url, err)
	}
	rebound, err := base64.StdEncoding.DecodeString(resp.ImageB64)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(rebound, old) {
		t.Fatal("the rebind compiled the old bytes; the test needs a different image")
	}
	return rebound
}

// expectServed checks that every node serves exactly want for name.
func expectServed(t *testing.T, nodes []*clusterNode, name string, want []byte) {
	t.Helper()
	for _, n := range nodes {
		b, err := n.cl.ImageRaw(context.Background(), name)
		if err != nil {
			t.Fatalf("GET %q from %s: %v", name, n.url, err)
		}
		if !bytes.Equal(b, want) {
			t.Errorf("%s serves a superseded binding of %q", n.url, name)
		}
	}
}

// pickOwned returns the index of a name with two owners among nodes,
// and those owners' indices.
func pickOwned(t *testing.T, nodes []*clusterNode, names []string) (pick, a, b int) {
	t.Helper()
	for s, name := range names {
		var owners []int
		for i, n := range nodes {
			if n.srv.cluster.Owns(name) {
				owners = append(owners, i)
			}
		}
		if len(owners) == 2 {
			return s, owners[0], owners[1]
		}
	}
	t.Fatal("no name with a 2-node replica set; the ring lost replication")
	return -1, -1, -1
}

// TestClusterRepairKeepsRebind compiles a name on an owner, fills it
// on a non-owner with a GET, rebinds it on the owner from another
// batch, and runs one repair round on every node. Repair compares
// versions, so no owner pulls the fill's superseded binding back, and
// the fill is refreshed: every node serves the rebind.
func TestClusterRepairKeepsRebind(t *testing.T) {
	for _, repl := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", repl), func(t *testing.T) {
			nodes := startClusterNodes(t, 3, repl, nil)
			names, wantBytes, specSets := clusterShapes(t, 2)
			name := names[0]
			owner := ownerOf(t, nodes, name)
			filler := -1
			for i, n := range nodes {
				if !n.srv.cluster.Owns(name) {
					filler = i
				}
			}
			compileOn(t, nodes[owner], name, specSets[0], wantBytes[0])
			expectServed(t, nodes[filler:filler+1], name, wantBytes[0])
			rebound := rebindOn(t, nodes[owner], name, specSets[1], wantBytes[0])
			ctx := context.Background()
			for _, n := range nodes {
				n.srv.RepairOnce(ctx)
			}
			expectServed(t, nodes, name, rebound)
		})
	}
}

// TestClusterRepairIdleAfterFills: fills carry their owner's binding
// version, so once every node has served every name, a repair round
// anywhere finds nothing newer to fetch.
func TestClusterRepairIdleAfterFills(t *testing.T) {
	for _, repl := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", repl), func(t *testing.T) {
			nodes := startClusterNodes(t, 3, repl, nil)
			names, wantBytes, specSets := clusterShapes(t, 4)
			for s, name := range names {
				compileOn(t, nodes[ownerOf(t, nodes, name)], name, specSets[s], wantBytes[s])
				expectServed(t, nodes, name, wantBytes[s])
			}
			for _, n := range nodes {
				if got := n.srv.RepairOnce(context.Background()); got != 0 {
					t.Errorf("%s repaired %d images after fills, want 0", n.url, got)
				}
			}
		})
	}
}

// TestClusterRebindSurvivesRestartOfItsOnlyHolder: one owner of a name
// is cut off, the name is rebound on the other, and that owner, now
// the only holder of the rebind, restarts on its store before the cut
// off one heals with the old binding still in memory. Versions are
// persisted with the bindings, so the restarted holder keeps the
// rebind and the healed owner takes it.
func TestClusterRebindSurvivesRestartOfItsOnlyHolder(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	withStores := func(i int, cfg *Config) { cfg.StoreDir = dirs[i] }
	nodes := startClusterNodes(t, 3, 2, withStores)
	names, wantBytes, specSets := clusterShapes(t, 6)
	ctx := context.Background()
	pick, holder, stale := pickOwned(t, nodes, names)
	name := names[pick]
	compileOn(t, nodes[holder], name, specSets[pick], wantBytes[pick])
	expectServed(t, nodes[stale:stale+1], name, wantBytes[pick])

	// Cut the stale owner off: its listener goes, its server and the
	// binding it holds stay.
	nodes[stale].hs.CloseClientConnections()
	nodes[stale].hs.Close()
	rebound := rebindOn(t, nodes[holder], name, specSets[(pick+1)%len(specSets)], wantBytes[pick])

	peers := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	nodes[holder].kill()
	ln, err := net.Listen("tcp", nodes[holder].url[len("http://"):])
	if err != nil {
		t.Fatal(err)
	}
	restarted := startClusterNode(t, ln, nodes[holder].url, peers, 2, holder, withStores)
	ln, err = net.Listen("tcp", nodes[stale].url[len("http://"):])
	if err != nil {
		t.Fatal(err)
	}
	healed := httptest.NewUnstartedServer(nodes[stale].srv.Handler())
	healed.Listener.Close()
	healed.Listener = ln
	healed.Start()
	t.Cleanup(healed.Close)

	if n := restarted.srv.RepairOnce(ctx); n != 0 {
		t.Errorf("restarted holder repaired %d images, want 0 (it holds the newest binding)", n)
	}
	if n := nodes[stale].srv.RepairOnce(ctx); n != 1 {
		t.Errorf("healed owner repaired %d images, want the 1 rebind it missed", n)
	}
	expectServed(t, []*clusterNode{restarted, nodes[stale], nodes[3-holder-stale]}, name, rebound)
}

// TestClusterRepairCountsInvalidPeerImage: a peer that lists a name and
// serves bytes that are not an image costs a peer error on the repair
// path and on the forward path, and stays alive: it did answer.
func TestClusterRepairCountsInvalidPeerImage(t *testing.T) {
	mux := http.NewServeMux()
	peer := httptest.NewServer(mux)
	t.Cleanup(peer.Close)
	mux.HandleFunc("GET /v1/cluster/digests", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(client.DigestsResponse{Self: peer.URL, Images: []client.ImageDigest{
			{Name: "img", Digest: strings.Repeat("ab", 32), Size: 7, Version: 1},
		}})
	})
	mux.HandleFunc("GET /v1/images/img", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("garbage"))
	})
	srv, err := New(Config{
		Parallelism:    1,
		RepairInterval: -1,
		Cluster: cluster.Config{
			Self:           "http://self.invalid:1",
			Peers:          []string{peer.URL},
			Replication:    2,
			GossipInterval: -1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	if n := srv.RepairOnce(context.Background()); n != 0 {
		t.Fatalf("repair took %d invalid images", n)
	}
	if st := srv.Cluster().Counters(); st.PeerErrors != 1 || st.Live != 2 {
		t.Fatalf("after repair fetched an invalid image: peer errors %d, live %d; want 1, 2", st.PeerErrors, st.Live)
	}
	front := httptest.NewServer(srv.Handler())
	t.Cleanup(front.Close)
	res, err := http.Get(front.URL + "/v1/images/img")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadGateway {
		t.Fatalf("forwarded GET of an invalid peer image answered %d, want 502", res.StatusCode)
	}
	if st := srv.Cluster().Counters(); st.PeerErrors != 2 || st.Live != 2 {
		t.Fatalf("after a forward of an invalid image: peer errors %d, live %d; want 2, 2", st.PeerErrors, st.Live)
	}
}

// TestClusterCloseCancelsRepairRound: Close ends a repair round in
// flight. The peer's digest listing never answers; once Close returns,
// the round's request to it must be gone within a second, not left to
// the peer client's 5-s attempt timeout.
func TestClusterCloseCancelsRepairRound(t *testing.T) {
	entered := make(chan struct{}, 1)
	released := make(chan struct{})
	var once sync.Once
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster/digests" {
			http.NotFound(w, r)
			return
		}
		select {
		case entered <- struct{}{}:
		default:
		}
		<-r.Context().Done()
		once.Do(func() { close(released) })
	}))
	t.Cleanup(peer.Close)
	srv, err := New(Config{
		Parallelism:    1,
		RepairInterval: 10 * time.Millisecond,
		Cluster: cluster.Config{
			Self:           "http://self.invalid:1",
			Peers:          []string{peer.URL},
			GossipInterval: -1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		srv.Close()
		t.Fatal("no repair round reached the peer")
	}
	srv.Close()
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("the repair round still holds the peer's request 1s after Close")
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
