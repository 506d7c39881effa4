package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"compaqt/client"
)

// fakePeer is a minimal peer: a gossip endpoint that answers 503 while
// unhealthy (a draining node, or a proxy in front of a dead one) plus
// an in-memory image map, recording whether requests arrive with the
// forwarded mark.
type fakePeer struct {
	hs        *httptest.Server
	healthy   atomic.Bool
	images    map[string][]byte
	forwarded atomic.Int64
	puts      atomic.Int64
	// putVersion is the version header of the last PUT.
	putVersion atomic.Value
}

func newFakePeer(t *testing.T, images map[string][]byte) *fakePeer {
	t.Helper()
	p := &fakePeer{images: images}
	p.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/gossip", func(w http.ResponseWriter, r *http.Request) {
		if !p.healthy.Load() {
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(client.GossipResponse{From: p.hs.URL})
	})
	mux.HandleFunc("GET /v1/images/{name}", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(ForwardedHeader) != "" {
			p.forwarded.Add(1)
		}
		b, ok := p.images[r.PathValue("name")]
		if !ok {
			http.Error(w, `{"error":"not found"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set(client.VersionHeader, "42")
		w.Write(b)
	})
	mux.HandleFunc("PUT /v1/images/{name}", func(w http.ResponseWriter, r *http.Request) {
		p.puts.Add(1)
		p.putVersion.Store(r.Header.Get(client.VersionHeader))
		w.WriteHeader(http.StatusNoContent)
	})
	p.hs = httptest.NewServer(mux)
	t.Cleanup(p.hs.Close)
	return p
}

// newTestCluster builds a Cluster whose sole remote member is the fake
// peer. The gossip loop is disabled so every liveness transition in
// the tests is explicit.
func newTestCluster(t *testing.T, p *fakePeer, extra ...string) *Cluster {
	t.Helper()
	c, err := New(Config{
		Self:           "http://self.invalid:1",
		Peers:          append([]string{p.hs.URL}, extra...),
		Replication:    2,
		GossipInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestKeyForDeterministic(t *testing.T) {
	a, b := KeyFor("pulse-X-q3"), KeyFor("pulse-X-q3")
	if a != b {
		t.Fatal("KeyFor is not deterministic")
	}
	if a == KeyFor("pulse-X-q4") {
		t.Fatal("distinct names collided")
	}
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero Config reports enabled")
	}
	if !(Config{Self: "http://a:1"}).Enabled() {
		t.Fatal("Self-only Config reports disabled")
	}
	if _, err := New(Config{Peers: []string{"http://a:1"}}); err == nil {
		t.Fatal("New without Self succeeded, want error")
	}
}

func TestFetchImageFromPeer(t *testing.T) {
	wire := []byte("wire-bytes")
	p := newFakePeer(t, map[string][]byte{"img": wire})
	c := newTestCluster(t, p)

	b, version, from, err := c.FetchImage(context.Background(), "img")
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(wire) || version != 42 || from != p.hs.URL {
		t.Fatalf("FetchImage = %q at version %d from %s, want %q at 42 from %s", b, version, from, wire, p.hs.URL)
	}
	if got := p.forwarded.Load(); got == 0 {
		t.Fatal("peer saw no forwarded mark; forwarded GETs could cycle")
	}
	if st := c.Counters(); st.Forwarded != 1 || st.PeerErrors != 0 {
		t.Fatalf("counters forwarded=%d peerErrors=%d, want 1, 0", st.Forwarded, st.PeerErrors)
	}
}

func TestFetchImageMissReturnsAPIError(t *testing.T) {
	p := newFakePeer(t, nil)
	c := newTestCluster(t, p)
	_, _, _, err := c.FetchImage(context.Background(), "absent")
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("FetchImage miss = %v, want a 404 API error", err)
	}
	// A 404 is an answer, not a liveness signal: the peer stays alive.
	if !c.alive(p.hs.URL) {
		t.Fatal("peer marked down by an HTTP-level miss")
	}
	if st := c.Counters(); st.PeerErrors != 1 {
		t.Fatalf("peerErrors = %d, want 1", st.PeerErrors)
	}
}

func TestTransportFailureMarksPeerSuspect(t *testing.T) {
	p := newFakePeer(t, nil)
	// A second member that is never reachable: transport errors.
	c := newTestCluster(t, p)

	p.hs.CloseClientConnections()
	p.hs.Close()
	_, _, _, err := c.FetchImage(context.Background(), "img")
	if err == nil {
		t.Fatal("FetchImage from a dead peer succeeded")
	}
	if c.alive(p.hs.URL) {
		t.Fatal("transport failure did not mark the peer down")
	}
	// Every member down → nothing to try.
	if _, _, _, err := c.FetchImage(context.Background(), "img"); err != ErrNoPeer {
		t.Fatalf("FetchImage with all peers down = %v, want ErrNoPeer", err)
	}

	// Gossip still reaches the dead peer: the failed exchange keeps it
	// down, records why, and does not touch peerErrors.
	errsBefore := c.Counters().PeerErrors
	if target, err := c.GossipOnce(context.Background()); target != p.hs.URL || err == nil {
		t.Fatalf("GossipOnce = %q, %v; want a failed exchange with the dead peer", target, err)
	}
	if c.alive(p.hs.URL) {
		t.Fatal("gossip with a dead peer marked it up")
	}
	if mv := viewOf(c, p.hs.URL); mv.State != "suspect" || mv.LastErr == "" {
		t.Fatalf("dead peer shows state %q, last error %q; want suspect with the dial error", mv.State, mv.LastErr)
	}
	if errsAfter := c.Counters().PeerErrors; errsAfter != errsBefore {
		t.Fatalf("gossip inflated peerErrors %d -> %d", errsBefore, errsAfter)
	}
}

func TestGossipMarksDrainingPeerSuspectThenHeals(t *testing.T) {
	p := newFakePeer(t, nil)
	c := newTestCluster(t, p)

	// Draining: answers HTTP but unhealthy — passive fetch errors would
	// not down-mark it (it answered), a failed gossip exchange must.
	p.healthy.Store(false)
	if _, err := c.GossipOnce(context.Background()); err == nil {
		t.Fatal("gossip with a draining (503) peer succeeded")
	}
	if c.alive(p.hs.URL) {
		t.Fatal("gossip left a draining (503) peer alive")
	}
	if mv := viewOf(c, p.hs.URL); !strings.Contains(mv.LastErr, "503") {
		t.Fatalf("draining peer's last error %q, want the 503", mv.LastErr)
	}
	if st := c.Counters(); st.PeerErrors != 0 {
		t.Fatalf("a failed gossip exchange counted %d peer errors, want 0", st.PeerErrors)
	}

	p.healthy.Store(true)
	if _, err := c.GossipOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !c.alive(p.hs.URL) {
		t.Fatal("gossip did not heal a recovered peer")
	}
	if mv := viewOf(c, p.hs.URL); mv.LastErr != "" {
		t.Fatalf("healed peer still carries LastErr %q", mv.LastErr)
	}
}

// viewOf returns url's row of the ring view.
func viewOf(c *Cluster, url string) MemberView {
	members, _, _ := c.View()
	for _, mv := range members {
		if mv.URL == url {
			return mv
		}
	}
	return MemberView{}
}

func TestPublishImage(t *testing.T) {
	p := newFakePeer(t, nil)
	c := newTestCluster(t, p)
	n := c.PublishImage(context.Background(), "img", 7, []byte("wire"))
	if n != 1 || p.puts.Load() != 1 {
		t.Fatalf("PublishImage = %d (peer saw %d puts), want 1", n, p.puts.Load())
	}
	if v := p.putVersion.Load(); v != "7" {
		t.Fatalf("publish carried version header %q, want \"7\"", v)
	}
}

func TestViewReportsMembership(t *testing.T) {
	p := newFakePeer(t, nil)
	c := newTestCluster(t, p)
	members, repl, vnodes := c.View()
	if repl != 2 || vnodes != DefaultVNodes {
		t.Fatalf("View repl=%d vnodes=%d, want 2, %d", repl, vnodes, DefaultVNodes)
	}
	if len(members) != 2 {
		t.Fatalf("View has %d members, want 2", len(members))
	}
	var sawSelf bool
	var total float64
	for _, m := range members {
		total += m.Share
		if m.Self {
			sawSelf = true
			if m.URL != c.Self() {
				t.Fatalf("self row URL = %s, want %s", m.URL, c.Self())
			}
		}
		if !m.Alive {
			t.Fatalf("member %s reported down on a healthy cluster", m.URL)
		}
	}
	if !sawSelf {
		t.Fatal("View lacks the self row")
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("View shares sum to %v, want 1", total)
	}
}

// TestCallerCancelLeavesPeerAlive cancels each peer call while a live
// peer holds the request: the caller gave up, the peer did not fail, so
// it stays alive and peer_errors stays 0.
func TestCallerCancelLeavesPeerAlive(t *testing.T) {
	entered := make(chan struct{}, 1)
	p := &fakePeer{hs: httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The server notices the client hanging up only once the
		// request body has been read.
		io.Copy(io.Discard, r.Body)
		select {
		case entered <- struct{}{}:
		default:
		}
		<-r.Context().Done()
	}))}
	t.Cleanup(p.hs.Close)
	c := newTestCluster(t, p)

	// midRequest runs op on a context canceled once the peer holds
	// op's request.
	midRequest := func(op func(ctx context.Context) error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			select {
			case <-entered:
				cancel()
			case <-ctx.Done():
			}
		}()
		if err := op(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled call returned %v, want context.Canceled", err)
		}
	}
	for _, call := range []struct {
		name string
		op   func(ctx context.Context) error
	}{
		{"FetchImage", func(ctx context.Context) error {
			_, _, _, err := c.FetchImage(ctx, "img")
			return err
		}},
		{"FetchImageFrom", func(ctx context.Context) error {
			_, _, err := c.FetchImageFrom(ctx, p.hs.URL, "img")
			return err
		}},
		{"PeerDigests", func(ctx context.Context) error {
			_, err := c.PeerDigests(ctx, p.hs.URL)
			return err
		}},
		{"PublishImage", func(ctx context.Context) error {
			if n := c.PublishImage(ctx, "img", 1, []byte("wire")); n != 0 {
				t.Fatalf("canceled publish landed on %d peers", n)
			}
			return ctx.Err()
		}},
	} {
		midRequest(call.op)
		if !c.alive(p.hs.URL) {
			t.Fatalf("%s canceled by its caller marked the live peer suspect", call.name)
		}
		if st := c.Counters(); st.PeerErrors != 0 {
			t.Fatalf("%s canceled by its caller counted %d peer errors, want 0", call.name, st.PeerErrors)
		}
	}
}
