package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"compaqt/client"
	"compaqt/internal/cache"
	"compaqt/internal/cluster"
	"compaqt/internal/store"
)

// This file is the server half of the self-healing cluster: the gossip
// and digest endpoints, and the anti-entropy repair loop, the one
// catch-up path: it brings every name this node owns or holds a copy
// of to the newest binding any live peer lists, whether this node
// missed a publish while it was down, joined late, or holds a fill a
// rebind has since superseded.

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

// handleDigests answers GET /v1/cluster/digests: the current binding of
// every image this node can serve, with its version, content digest
// and wire size — the listing a repairing peer compares with its own
// bindings.
func (s *Server) handleDigests(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	s.writeJSON(w, http.StatusOK, client.DigestsResponse{
		Self:   s.cluster.Self(),
		Images: s.localDigests(),
	})
}

// localDigests lists the current binding of every name this node
// serves.
func (s *Server) localDigests() []client.ImageDigest {
	var out []client.ImageDigest
	for _, name := range s.imageNames() {
		if b, ok := s.current(name); ok {
			out = append(out, client.ImageDigest{
				Name:    name,
				Digest:  hex.EncodeToString(b.key[:]),
				Size:    b.size,
				Version: b.version,
			})
		}
	}
	return out
}

// repairConcurrency bounds simultaneous repair fetches so a joining
// node streaming its whole shard does not monopolize peer bandwidth.
const repairConcurrency = 4

// RepairOnce runs one anti-entropy round: ask every live peer for its
// digest listing, take for each name the newest binding listed
// (store.Supersedes), and fetch it from a peer that listed it when
// this node owns the name or holds a copy, and the listed binding
// supersedes its own. The fetched bytes are validated, then bound at
// the version the peer served them with, like any other ingress.
// Returns the number of images repaired. The background loop calls it
// on RepairInterval; tests call it directly for determinism.
func (s *Server) RepairOnce(ctx context.Context) int {
	if s.cluster == nil {
		return 0
	}
	type want struct {
		binding
		name, holder string
	}
	newest := make(map[string]want)
	for _, peer := range s.cluster.LivePeers() {
		digs, err := s.cluster.PeerDigests(ctx, peer)
		if err != nil {
			continue // the peer flapped; the next round retries
		}
		for _, d := range digs {
			var k cache.Key
			if len(d.Digest) != hex.EncodedLen(len(k)) {
				continue
			}
			if _, err := hex.Decode(k[:], []byte(d.Digest)); err != nil {
				continue
			}
			w, seen := newest[d.Name]
			if !seen || store.Supersedes(d.Version, k, w.version, w.key) {
				newest[d.Name] = want{binding{d.Version, k, d.Size}, d.Name, peer}
			}
		}
	}
	var wants []want
	for _, w := range newest {
		cur, held := s.current(w.name)
		if held && !store.Supersedes(w.version, w.key, cur.version, cur.key) ||
			!held && !s.cluster.Owns(w.name) {
			continue
		}
		wants = append(wants, w)
	}
	sem := make(chan struct{}, repairConcurrency)
	var wg sync.WaitGroup
	var repaired atomic.Int64
	for _, wnt := range wants {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(wnt want) {
			defer func() { <-sem; wg.Done() }()
			wire, version, err := s.cluster.FetchImageFrom(ctx, wnt.holder, wnt.name)
			if err != nil {
				return
			}
			// Validate before anything touches local state: a peer, like
			// any network input, is not trusted to hand back a
			// well-formed image.
			si, err := receivedImage(wire)
			if err != nil {
				s.cluster.NoteInvalidImage(wnt.holder, err)
				return
			}
			si.version = version
			if s.storeImage(wnt.name, si) {
				s.cluster.NoteRepair()
				repaired.Add(1)
			}
		}(wnt)
	}
	wg.Wait()
	return int(repaired.Load())
}

// repairLoop drives RepairOnce until Close, which also cancels a round
// in flight and waits for the loop to return.
func (s *Server) repairLoop(interval time.Duration) {
	defer close(s.repairDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(s.ctx, interval+30*time.Second)
			s.RepairOnce(ctx)
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
		Self:         s.cluster.Self(),
		Replication:  s.cluster.Replication(),
		Members:      st.Members,
		Live:         st.Live,
		Forwarded:    st.Forwarded,
		PeerFills:    st.PeerFills,
		PeerErrors:   st.PeerErrors,
		Repairs:      st.Repairs,
		GossipRounds: st.GossipRounds,
		Refutations:  st.Refutations,
	}
}

// Cluster exposes the node's cluster membership (tests, embedders);
// nil when the server runs standalone.
func (s *Server) Cluster() *cluster.Cluster { return s.cluster }
