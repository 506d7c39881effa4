package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"compaqt"
	"compaqt/client"
	"compaqt/internal/cache"
	"compaqt/internal/cluster"
)

// This file is the server half of the self-healing cluster: the gossip
// and digest endpoints, and the anti-entropy repair loop that lets a
// joining or healed node pull the shard it owns from current holders
// instead of waiting for read misses to warm it.

// handleGossip answers POST /v1/cluster/gossip: one membership
// push-pull exchange (see internal/cluster). The sender's table merges
// into ours; the response carries the merged table back.
func (s *Server) handleGossip(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	var req client.GossipRequest
	if err := s.decodeBody(w, r, func(b []byte) error { return json.Unmarshal(b, &req) }); err != nil {
		s.fail(w, err)
		return
	}
	resp, err := s.cluster.HandleGossip(req)
	if err != nil {
		s.fail(w, badRequest("%v", err))
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleDigests answers GET /v1/cluster/digests: every image this node
// can serve (in-memory map united with the persistent store), with
// content digests and wire sizes — the listing a repairing peer diffs
// against its own holdings.
func (s *Server) handleDigests(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	s.writeJSON(w, http.StatusOK, client.DigestsResponse{
		Self:   s.cluster.Self(),
		Images: s.localDigests(),
	})
}

// localDigests lists this node's holdings. Store bindings win over the
// in-memory map on name collisions — the store's copy is the durable
// one, and its size is known without serializing.
func (s *Server) localDigests() []client.ImageDigest {
	seen := make(map[string]bool)
	var out []client.ImageDigest
	if s.store != nil {
		for _, b := range s.store.Bindings() {
			seen[b.Name] = true
			out = append(out, client.ImageDigest{
				Name:   b.Name,
				Digest: hex.EncodeToString(b.Key[:]),
				Size:   b.Size,
			})
		}
	}
	s.imagesMu.Lock()
	names := make([]string, len(s.imageOrder))
	copy(names, s.imageOrder)
	s.imagesMu.Unlock()
	for _, name := range names {
		if seen[name] {
			continue
		}
		si, ok := s.image(name)
		if !ok {
			continue
		}
		// Unrepresentable images (non-wire codecs) have nothing a peer
		// could stream; skip them like GET /v1/images would fail them.
		if _, err := si.img.AppendTo(nil); err != nil {
			continue
		}
		k := si.digest()
		out = append(out, client.ImageDigest{
			Name:   name,
			Digest: hex.EncodeToString(k[:]),
			Size:   int64(si.img.Size()),
		})
	}
	return out
}

// hasImage reports whether this node already holds name at exactly the
// given content digest (in the store or the in-memory map).
func (s *Server) hasImage(name, digest string) bool {
	raw, err := hex.DecodeString(digest)
	var k cache.Key
	if err != nil || len(raw) != len(k) {
		return false
	}
	copy(k[:], raw)
	if s.store != nil && s.store.Contains(name, k) {
		return true
	}
	if si, ok := s.image(name); ok {
		return si.digest() == k
	}
	return false
}

// repairConcurrency bounds simultaneous repair fetches so a joining
// node streaming its whole shard does not monopolize peer bandwidth.
const repairConcurrency = 4

// RepairOnce runs one anti-entropy round: ask every live peer for its
// digest listing, keep the images this node owns (by ring placement)
// but does not hold at the advertised digest, and stream them from
// their holders — decode-validated, written through to the map and
// store like any trusted-ingress path. Returns the number of images
// repaired. The background loop calls it on RepairInterval; tests call
// it directly for determinism.
func (s *Server) RepairOnce(ctx context.Context) int {
	if s.cluster == nil {
		return 0
	}
	// holders maps each wanted image to one peer that advertised it.
	type want struct{ name, digest, holder string }
	var wants []want
	seen := make(map[string]bool)
	for _, peer := range s.cluster.LivePeers() {
		digs, err := s.cluster.PeerDigests(ctx, peer)
		if err != nil {
			continue // the peer flapped; the next round retries
		}
		for _, d := range digs {
			if seen[d.Name] || !s.cluster.Owns(d.Name) || s.hasImage(d.Name, d.Digest) {
				continue
			}
			seen[d.Name] = true
			wants = append(wants, want{d.Name, d.Digest, peer})
		}
	}
	if len(wants) == 0 {
		return 0
	}
	sem := make(chan struct{}, repairConcurrency)
	var wg sync.WaitGroup
	var mu sync.Mutex
	repaired := 0
	for _, wnt := range wants {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(wnt want) {
			defer func() { <-sem; wg.Done() }()
			wire, err := s.cluster.FetchImageFrom(ctx, wnt.holder, wnt.name)
			if err != nil {
				return
			}
			// Decode-validate before anything touches local state: a peer,
			// like any network input, is not trusted to hand back a
			// well-formed image.
			img, err := compaqt.DecodeImageBytes(wire)
			if err != nil {
				return
			}
			s.storeImage(wnt.name, img)
			s.cluster.NoteRepair()
			mu.Lock()
			repaired++
			mu.Unlock()
		}(wnt)
	}
	wg.Wait()
	return repaired
}

// repairLoop drives RepairOnce (plus a hint flush, so hints whose peer
// healed while the heal hook was racing still drain) until Close.
func (s *Server) repairLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), interval+30*time.Second)
			s.RepairOnce(ctx)
			s.cluster.FlushHints(ctx)
			cancel()
		}
	}
}

// statsScopeTimeout bounds each peer's slot in the scope=cluster stats
// fan-out; a dead peer costs one timed-out error slot, not the call.
const statsScopeTimeout = 2 * time.Second

// handleStatsCluster answers GET /v1/stats?scope=cluster: this node's
// stats plus every other member's, fetched in parallel, aggregated
// into cluster-wide totals. Peers that do not answer appear as error
// slots — one dead member never fails the whole view.
func (s *Server) handleStatsCluster(w http.ResponseWriter, r *http.Request) {
	members, _, _ := s.cluster.View()
	slots := make([]client.PeerStats, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		if m.Self {
			local := s.localStats()
			slots[i] = client.PeerStats{URL: m.URL, Self: true, Stats: &local}
			continue
		}
		cl := s.cluster.ClientFor(m.URL)
		if cl == nil {
			slots[i] = client.PeerStats{URL: m.URL, Error: "no client for member"}
			continue
		}
		wg.Add(1)
		go func(i int, url string, cl *client.Client) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), statsScopeTimeout)
			defer cancel()
			st, err := cl.Stats(ctx)
			if err != nil {
				slots[i] = client.PeerStats{URL: url, Error: err.Error()}
				return
			}
			slots[i] = client.PeerStats{URL: url, Stats: st}
		}(i, m.URL, cl)
	}
	wg.Wait()
	resp := client.ClusterStatsResponse{Self: s.cluster.Self(), Peers: slots}
	for _, sl := range slots {
		if sl.Stats == nil {
			resp.Totals.Errors++
			continue
		}
		st := sl.Stats
		resp.Totals.Nodes++
		resp.Totals.Requests += st.Requests.Total
		resp.Totals.CompileCalls += st.Compile.Calls
		resp.Totals.CacheHits += st.Compile.CacheHits
		resp.Totals.Images += len(st.Images)
		if st.Store != nil {
			resp.Totals.StoreBytes += st.Store.Bytes
		}
		if st.Cluster != nil {
			resp.Totals.Forwarded += st.Cluster.Forwarded
			resp.Totals.PeerFills += st.Cluster.PeerFills
			resp.Totals.PeerErrors += st.Cluster.PeerErrors
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// clusterStats builds the cluster block of /v1/stats from one
// consistent counter snapshot.
func (s *Server) clusterStats() *client.ClusterStats {
	st := s.cluster.Counters()
	return &client.ClusterStats{
		Self:          s.cluster.Self(),
		Replication:   s.cluster.Replication(),
		Members:       st.Members,
		Live:          st.Live,
		Forwarded:     st.Forwarded,
		PeerFills:     st.PeerFills,
		PeerErrors:    st.PeerErrors,
		Hinted:        st.Hinted,
		HintsReplayed: st.HintsReplayed,
		HintsDropped:  st.HintsDropped,
		HintsPending:  st.HintsPending,
		Repairs:       st.Repairs,
		GossipRounds:  st.GossipRounds,
		Refutations:   st.Refutations,
	}
}

// Cluster exposes the node's cluster membership (tests, embedders);
// nil when the server runs standalone.
func (s *Server) Cluster() *cluster.Cluster { return s.cluster }
