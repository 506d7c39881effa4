package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"compaqt/client"
)

// Config assembles a Cluster. Membership seeds come from Peers; the
// rest tunes replication, liveness and the peer transport.
type Config struct {
	// Self is this node's advertised base URL, the identity other
	// members route to ("http://10.0.0.1:8371").
	Self string
	// Peers seeds the member table, Self included or not. It may list
	// the whole cluster or just one live member: gossip pulls the full
	// table from whichever seeds answer, and the ring grows as members
	// are learned. Order does not matter: members sort into the
	// identical ring.
	Peers []string
	// Replication is the number of ring members an image is published
	// to (owner plus successors); 0 means 1 — the owner only. It may
	// exceed the current member count: lookups clamp per call, so a
	// cluster that grows by gossip grows into its factor.
	Replication int
	// GossipInterval paces the membership push-pull exchanges, the
	// active liveness check; 0 means 1s, negative disables the loop
	// (tests call GossipOnce directly).
	GossipInterval time.Duration
	// Transport substitutes the HTTP transport under every peer client
	// (fault injection, custom dialers); nil means the default.
	Transport http.RoundTripper
}

// Enabled reports whether the config asks for a cluster at all.
func (c Config) Enabled() bool { return c.Self != "" || len(c.Peers) > 0 }

// ForwardedHeader marks inter-peer requests. A server receiving a
// marked GET answers from local state only — one hop, never a cycle,
// even when two nodes transiently disagree about a peer's liveness.
const ForwardedHeader = "X-Compaqt-Forwarded"

// ErrNoPeer reports a lookup whose live replica set contains no remote
// member to ask (everyone is down, or this node is the only member).
var ErrNoPeer = errors.New("cluster: no live peer holds this key")

// Stats is one consistent snapshot of the cluster counters — every
// field is captured under the same lock, so the forwarded count and the
// error count in one snapshot always belong to the same instant.
type Stats struct {
	// Forwarded counts GETs that left this node for a peer.
	Forwarded uint64
	// PeerFills counts remote fetches written through locally.
	PeerFills uint64
	// PeerErrors counts failed fetches, publishes and digest listings
	// and peer answers that were not a valid image; failed gossip
	// exchanges are liveness checks and stay out of it.
	PeerErrors uint64
	// Repairs counts images pulled by the anti-entropy repair loop.
	Repairs uint64
	// GossipRounds counts initiated push-pull exchanges.
	GossipRounds uint64
	// Refutations counts self-incarnation bumps made to refute a
	// suspect claim about this node.
	Refutations uint64
	// Members is the known member count (any state), Live the subset
	// currently alive (self included).
	Members int
	Live    int
}

// Cluster is one node's view of the serving tier: the member table and
// ring (grown by gossip), a pooled client per remote member, and the
// counters /v1/stats reports.
type Cluster struct {
	cfg  Config
	self string
	repl int

	hc *http.Client

	// mu guards the member table, the ring pointer, and the gossip
	// bookkeeping. The ring itself is immutable — mutation is a rebuild
	// plus pointer swap, and only a never-before-seen URL triggers one.
	mu        sync.RWMutex
	ring      *Ring
	members   map[string]*member // self included (self's cl is nil)
	selfInc   uint64
	gossipIdx uint64

	// cmu guards the counter snapshot — one lock for every field, which
	// is what makes Counters tear-free.
	cmu sync.Mutex
	st  Stats

	// ctx scopes the gossip loop and its exchanges; Close cancels it,
	// then waits for done, which the loop closes on exit (nil when no
	// loop runs).
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// New builds a Cluster from cfg. The initial table covers
// {Self} ∪ Peers; gossip grows it from there. One retrying client is
// built per remote member and reused for every forward, publish and
// gossip exchange.
//
// The node's first incarnation is the wall clock, so a node restarted
// on its old URL starts above any incarnation its peers suspect it at:
// one direct exchange re-admits it, and a merge with a peer that still
// suspects the old incarnation cannot undo that. A clock stepped
// backwards falls back to refutation: the node bumps past a suspect
// claim when it hears one.
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self (this node's advertised URL) is required with Peers")
	}
	repl := cfg.Replication
	if repl <= 0 {
		repl = 1
	}
	inner := cfg.Transport
	if inner == nil {
		inner = http.DefaultTransport
	}
	c := &Cluster{
		cfg:     cfg,
		self:    cfg.Self,
		repl:    repl,
		hc:      &http.Client{Transport: inner},
		members: make(map[string]*member),
		selfInc: uint64(max(time.Now().UnixNano(), 1)),
	}
	c.mu.Lock()
	if c.addMemberLocked(cfg.Self) == nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: invalid Self URL %q", cfg.Self)
	}
	for _, m := range cfg.Peers {
		if m != "" && c.addMemberLocked(m) == nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("cluster: invalid peer URL %q", m)
		}
	}
	c.mu.Unlock()
	c.ctx, c.cancel = context.WithCancel(context.Background())
	if g := cfg.GossipInterval; g >= 0 {
		if g == 0 {
			g = time.Second
		}
		c.done = make(chan struct{})
		go c.gossipLoop(g)
	}
	return c, nil
}

// buildPeerClient assembles the resilient client one remote member is
// talked to with.
func (c *Cluster) buildPeerClient(url string) *client.Client {
	return client.New(url,
		client.WithHTTPClient(c.hc),
		// Every peer request — forward, publish, listing or gossip — is
		// marked internal so the receiver serves local state only (one
		// hop, never a cycle).
		client.WithHeader(ForwardedHeader, "1"),
		// Two attempts per peer: the forward path itself falls back to
		// the next replica, so deep per-peer retries only add latency.
		client.WithRetry(client.RetryPolicy{
			MaxAttempts:    2,
			BaseDelay:      25 * time.Millisecond,
			MaxDelay:       250 * time.Millisecond,
			AttemptTimeout: 5 * time.Second,
		}),
	)
}

// addMemberLocked adds url to the table (idempotently) and, when it is
// genuinely new, rebuilds the ring over the grown member set — the only
// operation that ever changes the ring's point set. Callers hold c.mu.
func (c *Cluster) addMemberLocked(url string) *member {
	if url == "" {
		return nil
	}
	if m := c.members[url]; m != nil {
		return m
	}
	m := &member{url: url}
	if url != c.self {
		m.cl = c.buildPeerClient(url)
	}
	c.members[url] = m
	urls := make([]string, 0, len(c.members))
	for u := range c.members {
		urls = append(urls, u)
	}
	ring, err := NewRing(urls, DefaultVNodes, 0)
	if err != nil {
		delete(c.members, url)
		return nil
	}
	c.ring = ring
	return m
}

// Close stops the gossip loop, cancelling an exchange in flight and
// waiting for the loop to return. It is idempotent; in-flight forwards
// finish on their own contexts.
func (c *Cluster) Close() {
	c.cancel()
	if c.done != nil {
		<-c.done
	}
}

// Self returns this node's advertised URL.
func (c *Cluster) Self() string { return c.self }

// Replication returns the configured replication factor.
func (c *Cluster) Replication() int { return c.repl }

// snapshot captures the routing inputs — the current ring pointer and a
// point-in-time liveness set — so ring lookups never re-enter the lock
// per member.
func (c *Cluster) snapshot() (*Ring, func(string) bool) {
	c.mu.RLock()
	ring := c.ring
	alive := make(map[string]bool, len(c.members))
	for u, m := range c.members {
		alive[u] = u == c.self || m.state == StateAlive
	}
	c.mu.RUnlock()
	return ring, func(m string) bool { return alive[m] }
}

// alive reports one member's current liveness verdict (self is always
// alive). Ring lookups use snapshot instead — one lock for the whole
// walk; this point query serves the view and tests.
func (c *Cluster) alive(u string) bool {
	if u == c.self {
		return true
	}
	c.mu.RLock()
	m := c.members[u]
	ok := m != nil && m.state == StateAlive
	c.mu.RUnlock()
	return ok
}

// memberFor returns the table row for url, nil when unknown.
func (c *Cluster) memberFor(url string) *member {
	c.mu.RLock()
	m := c.members[url]
	c.mu.RUnlock()
	return m
}

// noteErr records a failed peer attempt made on the caller's ctx.
// Transport-level failures (never got an HTTP response: resets,
// refusals, timeouts) feed suspicion so subsequent lookups skip the
// member immediately — gossip heals it. An *APIError means
// the peer is up and answering; its content (404, 429) is the caller's
// business, not a liveness signal. Neither is a failure that ends after
// ctx is done: that is the caller giving up (a client that hung up on a
// forwarded GET, a shutdown), which says nothing about the peer, so it
// changes no counter and no liveness.
func (c *Cluster) noteErr(ctx context.Context, m *member, err error) {
	if ctx.Err() != nil {
		return
	}
	c.cmu.Lock()
	c.st.PeerErrors++
	c.cmu.Unlock()
	var apiErr *client.APIError
	transport := !errors.As(err, &apiErr)
	c.mu.Lock()
	m.lastErr = err.Error()
	if transport {
		c.markSuspectLocked(m, err.Error())
	}
	c.mu.Unlock()
}

// NoteInvalidImage records a peer that answered an image fetch with
// bytes that are not a valid image. It counts as a peer error and
// shows as the member's last error, but the peer answered, so it is
// no liveness signal.
func (c *Cluster) NoteInvalidImage(peer string, err error) {
	c.cmu.Lock()
	c.st.PeerErrors++
	c.cmu.Unlock()
	c.mu.Lock()
	if m := c.members[peer]; m != nil {
		m.lastErr = "invalid image: " + err.Error()
	}
	c.mu.Unlock()
}

// Owns reports whether this node is in name's replica set — the
// members a publish would target.
func (c *Cluster) Owns(name string) bool {
	ring, alive := c.snapshot()
	for _, m := range ring.Successors(KeyFor(name), c.repl, alive) {
		if m == c.self {
			return true
		}
	}
	return false
}

// FetchImage retrieves name's wire bytes and binding version from its
// replica set, trying the live owner first and falling through the
// successors. One extra successor beyond the replication factor is
// consulted to cover membership churn: a just-healed owner that missed
// a publish answers 404 and the next member still holds the bytes.
// Returns the serving peer's URL alongside the bytes.
func (c *Cluster) FetchImage(ctx context.Context, name string) (wire []byte, version uint64, from string, err error) {
	ring, alive := c.snapshot()
	targets := ring.Successors(KeyFor(name), c.repl+1, alive)
	var lastErr error
	tried := false
	for _, u := range targets {
		if u == c.self {
			continue
		}
		m := c.memberFor(u)
		if m == nil || m.cl == nil {
			continue
		}
		if !tried {
			tried = true
			c.cmu.Lock()
			c.st.Forwarded++
			c.cmu.Unlock()
		}
		b, v, err := m.cl.ImageRawVersion(ctx, name)
		if err == nil {
			return b, v, u, nil
		}
		c.noteErr(ctx, m, err)
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	if !tried {
		return nil, 0, "", ErrNoPeer
	}
	return nil, 0, "", lastErr
}

// FetchImageFrom retrieves name's wire bytes and binding version from
// one specific member — the anti-entropy repair path, which already
// knows (from the digest listing) who holds what.
func (c *Cluster) FetchImageFrom(ctx context.Context, peer, name string) ([]byte, uint64, error) {
	m := c.memberFor(peer)
	if m == nil || m.cl == nil {
		return nil, 0, fmt.Errorf("cluster: unknown peer %s", peer)
	}
	b, v, err := m.cl.ImageRawVersion(ctx, name)
	if err != nil {
		c.noteErr(ctx, m, err)
		return nil, 0, err
	}
	return b, v, nil
}

// PeerDigests lists the images one member reports owning.
func (c *Cluster) PeerDigests(ctx context.Context, peer string) ([]client.ImageDigest, error) {
	m := c.memberFor(peer)
	if m == nil || m.cl == nil {
		return nil, fmt.Errorf("cluster: unknown peer %s", peer)
	}
	resp, err := m.cl.Digests(ctx)
	if err != nil {
		c.noteErr(ctx, m, err)
		return nil, err
	}
	return resp.Images, nil
}

// PublishImage pushes name's wire bytes, bound at version, to every
// live remote member of its replica set (self, when in the set,
// already holds them locally). Publishing is best-effort per peer and
// never fails the compile that triggered it: a replica the push
// misses catches up by anti-entropy repair, which pulls the newest
// version any live peer lists.
func (c *Cluster) PublishImage(ctx context.Context, name string, version uint64, wire []byte) int {
	ring, alive := c.snapshot()
	published := 0
	for _, u := range ring.Successors(KeyFor(name), c.repl, alive) {
		if u == c.self {
			continue
		}
		m := c.memberFor(u)
		if m == nil || m.cl == nil {
			continue
		}
		if err := m.cl.PutImageVersion(ctx, name, version, wire); err != nil {
			c.noteErr(ctx, m, err)
			continue
		}
		published++
	}
	return published
}

// NoteFill counts one successful write-through of a remote fetch into
// the local store.
func (c *Cluster) NoteFill() {
	c.cmu.Lock()
	c.st.PeerFills++
	c.cmu.Unlock()
}

// NoteRepair counts one image pulled by the anti-entropy repair loop.
func (c *Cluster) NoteRepair() {
	c.cmu.Lock()
	c.st.Repairs++
	c.cmu.Unlock()
}

// Counters snapshots the cluster counters for /v1/stats. All counter
// fields are captured under one lock, so the snapshot is internally
// consistent — no field can tear against another.
func (c *Cluster) Counters() Stats {
	c.cmu.Lock()
	st := c.st
	c.cmu.Unlock()
	c.mu.RLock()
	st.Members = len(c.members)
	for u, m := range c.members {
		if u == c.self || m.state == StateAlive {
			st.Live++
		}
	}
	c.mu.RUnlock()
	return st
}

// LivePeers lists the remote members currently believed alive, sorted.
func (c *Cluster) LivePeers() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.members))
	for u, m := range c.members {
		if u != c.self && m.state == StateAlive {
			out = append(out, u)
		}
	}
	sort.Strings(out)
	return out
}

// ClientFor returns the pooled client for one remote member (nil for
// self or an unknown URL) — the scope=cluster stats fan-out uses it.
func (c *Cluster) ClientFor(url string) *client.Client {
	m := c.memberFor(url)
	if m == nil {
		return nil
	}
	return m.cl
}

// MemberView is one row of the ring view: identity, gossip state and
// the share of the key space the member's vnodes own.
type MemberView struct {
	URL         string
	Self        bool
	Alive       bool
	State       string
	Incarnation uint64
	Share       float64
	LastErr     string
}

// View reports the ring for GET /v1/cluster: every member with its
// gossip state and key-space share, plus the placement parameters.
func (c *Cluster) View() (members []MemberView, replication, vnodes int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	shares := c.ring.Shares()
	members = make([]MemberView, 0, len(c.ring.Members()))
	for _, u := range c.ring.Members() {
		mv := MemberView{URL: u, Self: u == c.self, Share: shares[u]}
		if m := c.members[u]; m != nil {
			mv.State = m.state.String()
			mv.Incarnation = m.incarnation
			mv.Alive = m.state == StateAlive
			mv.LastErr = m.lastErr
		}
		if mv.Self {
			mv.State = StateAlive.String()
			mv.Incarnation = c.selfInc
			mv.Alive = true
		}
		members = append(members, mv)
	}
	return members, c.repl, c.ring.VNodes()
}
