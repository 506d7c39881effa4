// Gossip-membership unit tests: the SWIM merge rules (incarnation
// precedence, severity at equal incarnation, refutation of claims
// about self), the join path growing the ring, the suspect clock, and
// the invariant that liveness flips never rebuild the ring. Everything
// here drives the state machine directly — no timers, no background
// loops — so each transition is the one the test caused.
package cluster

import (
	"context"
	"strings"
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
		if st == StateSuspect {
			m.suspectSince = time.Now()
		}
	}
	c.mu.Unlock()
}

func peerState(c *Cluster, url string) (State, uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m := c.members[url]
	if m == nil {
		return StateDead, 0
	}
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

	// A stale rumor at incarnation 3 — even a maximally severe one —
	// must not move the needle.
	c.mergeTable([]client.GossipMember{{URL: p.hs.URL, Incarnation: 3, State: "dead"}})
	if st, inc := peerState(c, p.hs.URL); st != StateAlive || inc != 5 {
		t.Fatalf("stale dead rumor applied: state=%v inc=%d, want alive inc=5", st, inc)
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
	c.mergeTable([]client.GossipMember{{URL: c.Self(), Incarnation: 1, State: "dead"}})
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

func TestSuspectTimeoutPromotesToDead(t *testing.T) {
	p := newFakePeer(t, nil)
	c, err := New(Config{
		Self:           "http://self.invalid:1",
		Peers:          []string{p.hs.URL},
		ProbeInterval:  -1,
		GossipInterval: -1,
		SuspectTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	c.mu.Lock()
	c.markSuspectLocked(c.members[p.hs.URL], "probe failed")
	c.mu.Unlock()
	time.Sleep(5 * time.Millisecond)
	c.tickSuspects()
	if st, _ := peerState(c, p.hs.URL); st != StateDead {
		t.Fatalf("suspect past timeout = %v, want dead", st)
	}
	// Dead is not forever: the member's own refutation (alive at a
	// higher incarnation) resurrects it.
	c.mergeTable([]client.GossipMember{{URL: p.hs.URL, Incarnation: 1, State: "alive"}})
	if st, _ := peerState(c, p.hs.URL); st != StateAlive {
		t.Fatalf("refutation did not resurrect a dead member: %v", st)
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
