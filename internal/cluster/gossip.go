package cluster

import (
	"context"
	"fmt"
	"sort"
	"time"

	"compaqt/client"
)

// Membership is SWIM-flavored gossip piggybacked on the HTTP plane:
// every node keeps a versioned member table — URL, incarnation
// number, alive/suspect state — and periodically push-pulls it with
// one peer via POST /v1/cluster/gossip. That exchange is also the
// active liveness check, as in SWIM: its target rotates through every
// remote member, down ones included, and a failed exchange marks the
// target suspect while a successful one marks it alive. Joining takes
// one seed URL (-join) rather than the full member list: the first
// exchange pulls the whole table and the ring grows with each
// newly-learned member. Suspicion is fed by two local signals (a
// failed exchange, a transport-level failure of a forward, publish or
// listing) and by gossip from other members; only the member itself
// can refute it, by bumping its own incarnation when it learns it is
// suspected. The ring's point set only ever changes on join (a URL
// never seen before); alive/suspect flips are a liveness predicate
// over an unchanged ring, so a flap storm re-routes keys without ever
// rebuilding placement.

// State is one member's liveness as this node believes it.
type State uint8

const (
	// StateAlive members serve their ring arcs.
	StateAlive State = iota
	// StateSuspect members failed a gossip exchange or a forward, or
	// were gossiped suspect; the ring skips them, gossip still reaches
	// them, and only a higher self-incarnation or a successful exchange
	// brings them back.
	StateSuspect
)

var stateNames = [...]string{"alive", "suspect"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// parseState maps the wire form back; unknown strings (an older
// node's "dead" among them) are treated as suspect — a conservative
// reading of a table row we cannot interpret.
func parseState(s string) State {
	switch s {
	case "alive":
		return StateAlive
	}
	return StateSuspect
}

// severity orders states at equal incarnation: a more severe claim
// wins (suspect > alive), because only the member itself can overrule
// it — by incrementing its incarnation.
func severity(s State) int { return int(s) }

// member is one row of the table: identity, the resilient client
// (nil for self), and the gossip state.
type member struct {
	url string
	cl  *client.Client

	state       State
	incarnation uint64
	lastErr     string
}

// table builds the wire form of the member table, self included,
// sorted by URL so two nodes with equal knowledge exchange identical
// bodies. Callers hold c.mu.
func (c *Cluster) tableLocked() []client.GossipMember {
	out := make([]client.GossipMember, 0, len(c.members))
	for _, m := range c.members {
		gm := client.GossipMember{URL: m.url, Incarnation: m.incarnation, State: m.state.String()}
		if m.url == c.self {
			gm.Incarnation = c.selfInc
			gm.State = StateAlive.String()
		}
		out = append(out, gm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// HandleGossip is the receiving half of one push-pull exchange: merge
// the sender's table, mark the sender itself alive (it demonstrably
// is — it just reached us), and answer with the merged table. A node
// gossiping to itself is a wiring bug and is rejected.
func (c *Cluster) HandleGossip(req client.GossipRequest) (client.GossipResponse, error) {
	if req.From == c.self {
		return client.GossipResponse{}, fmt.Errorf("cluster: rejecting gossip from self (%s)", c.self)
	}
	c.mergeTable(req.Members)
	if req.From != "" {
		c.mu.Lock()
		if m := c.addMemberLocked(req.From); m != nil {
			c.markAliveLocked(m, m.incarnation)
		}
		c.mu.Unlock()
	}
	c.mu.Lock()
	resp := client.GossipResponse{From: c.self, Members: c.tableLocked()}
	c.mu.Unlock()
	return resp, nil
}

// mergeTable folds a received member table into ours under the SWIM
// rules: a higher incarnation always wins; at equal incarnation the
// more severe state wins. Claims about ourselves are never adopted —
// hearing that we are suspect triggers a refutation instead:
// our incarnation jumps past the claim and the next exchanges spread
// the correction.
func (c *Cluster) mergeTable(entries []client.GossipMember) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range entries {
		if e.URL == "" {
			continue
		}
		st := parseState(e.State)
		if e.URL == c.self {
			if st != StateAlive && e.Incarnation >= c.selfInc {
				c.selfInc = e.Incarnation + 1
				c.cmu.Lock()
				c.st.Refutations++
				c.cmu.Unlock()
			}
			continue
		}
		m := c.members[e.URL]
		if m == nil {
			m = c.addMemberLocked(e.URL)
			if m == nil {
				continue
			}
			m.incarnation = e.Incarnation
			c.setStateLocked(m, st)
			continue
		}
		switch {
		case e.Incarnation > m.incarnation:
			m.incarnation = e.Incarnation
			c.setStateLocked(m, st)
		case e.Incarnation == m.incarnation && severity(st) > severity(m.state):
			c.setStateLocked(m, st)
		}
	}
}

// setStateLocked applies a state transition; becoming alive clears
// the last error. Callers hold c.mu.
func (c *Cluster) setStateLocked(m *member, st State) {
	if m.state == st {
		return
	}
	m.state = st
	if st == StateAlive {
		m.lastErr = ""
	}
}

// markAliveLocked records direct evidence that m is up (a gossip
// exchange with it, either side initiating) at the given incarnation.
func (c *Cluster) markAliveLocked(m *member, inc uint64) {
	if inc > m.incarnation {
		m.incarnation = inc
	}
	c.setStateLocked(m, StateAlive)
}

// markSuspectLocked records local evidence that m is unreachable. The
// incarnation is untouched — only m itself may bump it.
func (c *Cluster) markSuspectLocked(m *member, cause string) {
	m.lastErr = cause
	if m.state == StateAlive {
		c.setStateLocked(m, StateSuspect)
	}
}

// gossipRoundTimeout bounds one exchange. A target that runs it out
// (a frozen process whose socket still accepts) has failed the round.
const gossipRoundTimeout = time.Second

// GossipOnce runs one push-pull exchange with one peer: send our
// table, merge the response. Targets rotate round-robin through every
// remote member, suspect ones included, so a down member is re-tried
// once per rotation. The exchange is the active liveness check: any
// failure (no connection, the one-second bound run out, a non-2xx
// answer) marks the target suspect with its last error, outside
// peer_errors; a success marks it alive. A failure after ctx is done
// (Close) marks nothing. Returns the peer asked, or "" when there was
// nobody to ask.
func (c *Cluster) GossipOnce(ctx context.Context) (string, error) {
	c.mu.Lock()
	candidates := make([]string, 0, len(c.members))
	for u := range c.members {
		if u != c.self {
			candidates = append(candidates, u)
		}
	}
	if len(candidates) == 0 {
		c.mu.Unlock()
		return "", nil
	}
	sort.Strings(candidates)
	target := candidates[int(c.gossipIdx%uint64(len(candidates)))]
	c.gossipIdx++
	m := c.members[target]
	req := client.GossipRequest{From: c.self, Members: c.tableLocked()}
	c.mu.Unlock()

	rctx, cancel := context.WithTimeout(ctx, gossipRoundTimeout)
	resp, err := m.cl.Gossip(rctx, req)
	cancel()
	c.cmu.Lock()
	c.st.GossipRounds++
	c.cmu.Unlock()
	if err != nil {
		if ctx.Err() == nil {
			c.mu.Lock()
			c.markSuspectLocked(m, err.Error())
			c.mu.Unlock()
		}
		return target, err
	}
	c.mergeTable(resp.Members)
	c.mu.Lock()
	c.markAliveLocked(m, m.incarnation)
	c.mu.Unlock()
	return target, nil
}

// gossipLoop drives GossipOnce on the configured cadence until Close.
func (c *Cluster) gossipLoop(interval time.Duration) {
	defer close(c.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.GossipOnce(c.ctx)
		}
	}
}
