// Gossip-membership unit tests: the SWIM merge rules (incarnation
// precedence, severity at equal incarnation, refutation of claims
// about self), a restarted node's re-admission, the join path growing
// the ring, the invariant that liveness flips never rebuild the ring,
// and the exchange as the liveness check (its one-second bound, and
// Close cancelling it).
// Apart from the last, everything here drives the state machine
// directly — no timers, no background loops — so each transition is
// the one the test caused.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"compaqt/client"
)

// ringPtr reads the current ring pointer; pointer identity across a
// sequence of events is the "ring never rebuilt" assertion.
func ringPtr(c *Cluster) *Ring {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring
}

// setPeerState flips one member's gossip state directly so tests can
// stage liveness without a probe or a gossip exchange.
func setPeerState(c *Cluster, url string, st State) {
	c.mu.Lock()
	if m := c.members[url]; m != nil {
		m.state = st
	}
	c.mu.Unlock()
}

func peerState(c *Cluster, url string) (State, uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m := c.members[url]
	return m.state, m.incarnation
}

func TestGossipFromSelfRejected(t *testing.T) {
	p := newFakePeer(t, nil)
	c := newTestCluster(t, p)
	_, err := c.HandleGossip(client.GossipRequest{From: c.Self()})
	if err == nil || !strings.Contains(err.Error(), "self") {
		t.Fatalf("HandleGossip from self = %v, want a self-rejection error", err)
	}
}

func TestGossipStaleIncarnationIgnored(t *testing.T) {
	p := newFakePeer(t, nil)
	c := newTestCluster(t, p)

	// The peer refuted itself up to incarnation 5 and we heard it.
	c.mu.Lock()
	c.markAliveLocked(c.members[p.hs.URL], 5)
	c.mu.Unlock()

	// A stale rumor at incarnation 3 — even a suspect one — must not
	// move the needle.
	c.mergeTable([]client.GossipMember{{URL: p.hs.URL, Incarnation: 3, State: "suspect"}})
	if st, inc := peerState(c, p.hs.URL); st != StateAlive || inc != 5 {
		t.Fatalf("stale suspect rumor applied: state=%v inc=%d, want alive inc=5", st, inc)
	}

	// At the same incarnation the more severe claim wins...
	c.mergeTable([]client.GossipMember{{URL: p.hs.URL, Incarnation: 5, State: "suspect"}})
	if st, _ := peerState(c, p.hs.URL); st != StateSuspect {
		t.Fatalf("equal-incarnation suspect claim ignored: state=%v", st)
	}
	// ...and a less severe claim at the same incarnation does not: only
	// the member itself may soften its state, by bumping the incarnation.
	c.mergeTable([]client.GossipMember{{URL: p.hs.URL, Incarnation: 5, State: "alive"}})
	if st, _ := peerState(c, p.hs.URL); st != StateSuspect {
		t.Fatalf("equal-incarnation alive claim demoted suspicion: state=%v", st)
	}
	// The refutation arrives: alive at a higher incarnation.
	c.mergeTable([]client.GossipMember{{URL: p.hs.URL, Incarnation: 6, State: "alive"}})
	if st, inc := peerState(c, p.hs.URL); st != StateAlive || inc != 6 {
		t.Fatalf("refutation at higher incarnation not applied: state=%v inc=%d", st, inc)
	}
}

func TestGossipSelfClaimTriggersRefutation(t *testing.T) {
	p := newFakePeer(t, nil)
	c := newTestCluster(t, p)

	before := c.Counters()
	start := selfIncarnation(c)
	// Someone believes we are suspect at our current incarnation. We do
	// not adopt it — we jump past it.
	c.mergeTable([]client.GossipMember{{URL: c.Self(), Incarnation: start, State: "suspect"}})
	if inc := selfIncarnation(c); inc != start+1 {
		t.Fatalf("selfInc = %d after a suspect claim at %d, want %d", inc, start, start+1)
	}
	if got := c.Counters().Refutations - before.Refutations; got != 1 {
		t.Fatalf("refutations advanced by %d, want 1", got)
	}
	// The outgoing table carries the bumped incarnation and alive state.
	resp, err := c.HandleGossip(client.GossipRequest{From: p.hs.URL})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range resp.Members {
		if m.URL == c.Self() && (m.State != "alive" || m.Incarnation != start+1) {
			t.Fatalf("self row after refutation = %+v, want alive@%d", m, start+1)
		}
	}
	// A stale claim below our incarnation is ignored outright.
	c.mergeTable([]client.GossipMember{{URL: c.Self(), Incarnation: start, State: "suspect"}})
	if inc := selfIncarnation(c); inc != start+1 {
		t.Fatalf("stale self claim moved selfInc to %d, want %d", inc, start+1)
	}
}

func selfIncarnation(c *Cluster) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.selfInc
}

// memNet is an in-memory peer transport: it hands each gossip request
// to the Cluster registered under the request's host, with no sockets,
// and fails a request to a host marked down as a refused dial would.
type memNet struct {
	mu    sync.Mutex
	nodes map[string]*Cluster
	down  map[string]bool
}

func (n *memNet) RoundTrip(r *http.Request) (*http.Response, error) {
	n.mu.Lock()
	c, down := n.nodes[r.URL.Host], n.down[r.URL.Host]
	n.mu.Unlock()
	if c == nil || down {
		return nil, errors.New("connection refused")
	}
	var req client.GossipRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, err
	}
	resp, err := c.HandleGossip(req)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(body)),
		Request:    r,
	}, nil
}

// start builds the node at url on the in-memory network, replacing
// any node registered there before, with its gossip loop off.
func (n *memNet) start(t *testing.T, url string, peers []string) *Cluster {
	t.Helper()
	c, err := New(Config{Self: url, Peers: peers, GossipInterval: -1, Transport: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	n.mu.Lock()
	n.nodes[strings.TrimPrefix(url, "http://")] = c
	n.mu.Unlock()
	return c
}

func (n *memNet) setDown(url string, down bool) {
	n.mu.Lock()
	n.down[strings.TrimPrefix(url, "http://")] = down
	n.mu.Unlock()
}

// gossipWith steps c's gossip rotation until it has exchanged with
// target, and fails the test on the exchange's outcome if it is not
// wantErr's.
func gossipWith(t *testing.T, c *Cluster, target string, wantErr bool) {
	t.Helper()
	for range 3 {
		got, err := c.GossipOnce(context.Background())
		if got != target {
			continue
		}
		if (err != nil) != wantErr {
			t.Fatalf("%s gossiping with %s: %v", c.Self(), target, err)
		}
		return
	}
	t.Fatalf("%s never gossiped with %s", c.Self(), target)
}

// TestRestartedNodeReadmittedWithoutRefutation restarts a node on its
// old URL while both of its peers suspect it. One peer re-admits it by
// a direct exchange, then merges the table of the other, which still
// suspects it at its old incarnation: the node must stay alive, and it
// must not have had to refute anything. Every exchange is stepped.
func TestRestartedNodeReadmittedWithoutRefutation(t *testing.T) {
	const a, b, n = "http://a.test", "http://b.test", "http://n.test"
	mn := &memNet{nodes: map[string]*Cluster{}, down: map[string]bool{}}
	all := []string{a, b, n}
	ca, cb, cn := mn.start(t, a, all), mn.start(t, b, all), mn.start(t, n, all)
	for _, c := range []*Cluster{ca, cb, cn} {
		for range 2 {
			if _, err := c.GossipOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	old := selfIncarnation(cn)

	// n goes down; each peer's next exchange with it fails and marks
	// it suspect at the incarnation it had.
	mn.setDown(n, true)
	gossipWith(t, ca, n, true)
	gossipWith(t, cb, n, true)
	for _, c := range []*Cluster{ca, cb} {
		if st, inc := peerState(c, n); st != StateSuspect || inc != old {
			t.Fatalf("%s holds n %v@%d, want suspect@%d", c.Self(), st, inc, old)
		}
	}

	// n restarts on its old URL and joins through a: its first exchange
	// re-admits it there by direct contact.
	cn = mn.start(t, n, []string{a})
	mn.setDown(n, false)
	gossipWith(t, cn, a, false)
	if !ca.alive(n) {
		t.Fatal("the restarted node's exchange with a left it suspect there")
	}
	// b, still suspecting n at its old incarnation, pushes its table to
	// a: a must keep n alive.
	gossipWith(t, cb, a, false)
	if st, inc := peerState(ca, n); st != StateAlive {
		t.Fatalf("a's merge with b flipped the restarted node back to %v@%d (it ran at %d before the restart, %d after)",
			st, inc, old, selfIncarnation(cn))
	}
	// b's suspicion reaches n itself: below n's incarnation, it is no
	// claim to refute.
	gossipWith(t, cb, n, false)
	if r := cn.Counters().Refutations; r != 0 {
		t.Fatalf("the restarted node refuted %d times, want 0", r)
	}
	for _, c := range []*Cluster{ca, cb} {
		if !c.alive(n) {
			t.Fatalf("%s ends with the restarted node suspect", c.Self())
		}
	}
}

func TestGossipJoinGrowsRing(t *testing.T) {
	p := newFakePeer(t, nil)
	c := newTestCluster(t, p)
	r0 := ringPtr(c)
	if got := len(r0.Members()); got != 2 {
		t.Fatalf("seed ring has %d members, want 2", got)
	}

	// A gossip exchange teaches us a member we have never seen: the one
	// event that rebuilds the ring.
	newcomer := "http://newcomer.invalid:7"
	if _, err := c.HandleGossip(client.GossipRequest{
		From:    p.hs.URL,
		Members: []client.GossipMember{{URL: newcomer, Incarnation: 1, State: "alive"}},
	}); err != nil {
		t.Fatal(err)
	}
	r1 := ringPtr(c)
	if r1 == r0 {
		t.Fatal("learning a new member did not rebuild the ring")
	}
	if got := len(r1.Members()); got != 3 {
		t.Fatalf("ring has %d members after join, want 3", got)
	}
	members, _, _ := c.View()
	found := false
	for _, mv := range members {
		if mv.URL == newcomer {
			found = true
		}
	}
	if !found {
		t.Fatal("joined member missing from the view")
	}

	// Hearing the same member again is idempotent: no rebuild.
	c.mergeTable([]client.GossipMember{{URL: newcomer, Incarnation: 1, State: "alive"}})
	if ringPtr(c) != r1 {
		t.Fatal("re-learning a known member rebuilt the ring")
	}
}

// TestFlapStormLeavesRingAlone pins the membership/liveness split: a
// suspect→alive flap storm — hundreds of transitions, from both the
// local-evidence path and gossip — must never touch the ring pointer.
// Placement is a pure function of the member set; liveness is a
// predicate evaluated per lookup.
func TestFlapStormLeavesRingAlone(t *testing.T) {
	p := newFakePeer(t, nil)
	c := newTestCluster(t, p, "http://stormy.invalid:9")
	r0 := ringPtr(c)

	for i := 0; i < 200; i++ {
		c.mu.Lock()
		m := c.members["http://stormy.invalid:9"]
		c.markSuspectLocked(m, "storm")
		c.mu.Unlock()
		// Alternate the heal path: direct evidence and gossip rumor.
		if i%2 == 0 {
			c.mu.Lock()
			c.markAliveLocked(m, m.incarnation+1)
			c.mu.Unlock()
		} else {
			_, inc := peerState(c, "http://stormy.invalid:9")
			c.mergeTable([]client.GossipMember{
				{URL: "http://stormy.invalid:9", Incarnation: inc + 1, State: "alive"},
			})
		}
	}
	if ringPtr(c) != r0 {
		t.Fatal("a flap storm rebuilt the ring; liveness must stay a predicate over a stable point set")
	}
	if st, _ := peerState(c, "http://stormy.invalid:9"); st != StateAlive {
		t.Fatalf("storm survivor ended %v, want alive", st)
	}
}

// TestGossipUnknownStateReadsAsSuspect: a row this node cannot
// interpret, an older node's "dead" among them, reads as suspect.
func TestGossipUnknownStateReadsAsSuspect(t *testing.T) {
	for in, want := range map[string]State{"alive": StateAlive, "suspect": StateSuspect, "dead": StateSuspect, "": StateSuspect} {
		if got := parseState(in); got != want {
			t.Errorf("parseState(%q) = %v, want %v", in, got, want)
		}
	}
}

// TestPublishSkipsDownPeer: a publish goes to live replicas only. A
// replica it skips catches up by repair, not by a retry of the push.
func TestPublishSkipsDownPeer(t *testing.T) {
	p := newFakePeer(t, nil)
	c := newTestCluster(t, p) // replication 2: replica set = {self, peer}

	setPeerState(c, p.hs.URL, StateSuspect)
	if n := c.PublishImage(context.Background(), "img", 1, []byte("wire")); n != 0 {
		t.Fatalf("publish to a suspect-only cluster landed on %d peers, want 0", n)
	}
	if p.puts.Load() != 0 {
		t.Fatal("suspect peer saw a PUT; the publish must skip it")
	}
	setPeerState(c, p.hs.URL, StateAlive)
	if c.Counters().PeerErrors != 0 || p.puts.Load() != 0 {
		t.Fatal("a heal replayed the skipped publish; nothing should")
	}
	if n := c.PublishImage(context.Background(), "img", 2, []byte("wire")); n != 1 {
		t.Fatalf("publish to the healed peer landed on %d peers, want 1", n)
	}
}

// blockingGossipPeer is a peer whose gossip endpoint holds every
// exchange until the exchange's own context ends. entered receives
// once per exchange; released is closed when the first one's context
// is done.
func blockingGossipPeer(t *testing.T) (url string, entered, released chan struct{}) {
	t.Helper()
	entered = make(chan struct{}, 1)
	released = make(chan struct{})
	var once sync.Once
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case entered <- struct{}{}:
		default:
		}
		<-r.Context().Done()
		once.Do(func() { close(released) })
	}))
	t.Cleanup(hs.Close)
	return hs.URL, entered, released
}

// TestGossipRoundBoundMarksFrozenPeerSuspect: a peer that accepts the
// exchange and never answers (a SIGSTOPped process) fails the round
// when its one-second bound runs out, and is marked suspect with the
// deadline as its last error.
func TestGossipRoundBoundMarksFrozenPeerSuspect(t *testing.T) {
	peer, _, _ := blockingGossipPeer(t)
	c, err := New(Config{Self: "http://self.invalid:1", Peers: []string{peer}, GossipInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	start := time.Now()
	if _, err := c.GossipOnce(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("GossipOnce with a frozen peer = %v, want the round's deadline", err)
	}
	if d := time.Since(start); d < gossipRoundTimeout || d > gossipRoundTimeout+time.Second {
		t.Fatalf("round took %v, want about %v", d, gossipRoundTimeout)
	}
	if mv := viewOf(c, peer); mv.Alive || mv.LastErr == "" {
		t.Fatalf("frozen peer after a timed-out round: alive=%v last error %q; want suspect with the deadline", mv.Alive, mv.LastErr)
	}
}

// TestGossipCloseCancelsRound: Close ends an exchange in flight. The
// peer's gossip endpoint never answers; once Close returns, the
// exchange's request must be gone within 100 ms, not left to the
// round's bound, and the peer, which did not fail, stays alive.
func TestGossipCloseCancelsRound(t *testing.T) {
	peer, entered, released := blockingGossipPeer(t)
	c, err := New(Config{Self: "http://self.invalid:1", Peers: []string{peer}, GossipInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		c.Close()
		t.Fatal("no gossip round reached the peer")
	}
	start := time.Now()
	c.Close()
	select {
	case <-released:
	case <-time.After(100*time.Millisecond - time.Since(start)):
		t.Fatalf("the exchange's request outlived Close by over 100 ms")
	}
	if !c.alive(peer) {
		t.Fatal("an exchange Close cancelled marked the peer suspect")
	}
}
