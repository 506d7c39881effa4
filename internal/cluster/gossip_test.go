// Gossip-membership unit tests: the SWIM merge rules (incarnation
// precedence, severity at equal incarnation, refutation of claims
// about self), the join path growing the ring, the invariant that
// liveness flips never rebuild the ring, and the exchange as the
// liveness check (its one-second bound, and Close cancelling it).
// Apart from the last, everything here drives the state machine
// directly — no timers, no background loops — so each transition is
// the one the test caused.
package cluster

import (
	"context"
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
	// Someone believes we are suspect at our current incarnation. We do
	// not adopt it — we jump past it.
	c.mergeTable([]client.GossipMember{{URL: c.Self(), Incarnation: 1, State: "suspect"}})
	c.mu.RLock()
	inc := c.selfInc
	c.mu.RUnlock()
	if inc != 2 {
		t.Fatalf("selfInc = %d after a suspect claim at 1, want 2", inc)
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
		if m.URL == c.Self() && (m.State != "alive" || m.Incarnation != 2) {
			t.Fatalf("self row after refutation = %+v, want alive@2", m)
		}
	}
	// A stale claim below our incarnation is ignored outright.
	c.mergeTable([]client.GossipMember{{URL: c.Self(), Incarnation: 1, State: "suspect"}})
	c.mu.RLock()
	inc = c.selfInc
	c.mu.RUnlock()
	if inc != 2 {
		t.Fatalf("stale self claim moved selfInc to %d, want 2", inc)
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
