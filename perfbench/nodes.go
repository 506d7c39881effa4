package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"compaqt/client"
	"compaqt/internal/cluster"
	"compaqt/internal/server"
)

// node is one in-process compaqt server on a loopback listener.
type node struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

// round is one set of fresh nodes: its store directories are created
// for it and removed by close, so no round sees another's state.
type round struct {
	dir   string
	nodes []*node
}

// layoutStores creates a round's directory and, when topo has a store
// template, copies it in as each node's store.
func layoutStores(dir string, topo topology) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if topo.storeTemplate == "" {
		return nil
	}
	for i := range topo.nodes {
		if err := os.CopyFS(nodeStore(dir, i), os.DirFS(topo.storeTemplate)); err != nil {
			os.RemoveAll(dir)
			return err
		}
	}
	return nil
}

func nodeStore(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("node%d", i)) }

// startRound creates the nodes of topo in dir, laid out by
// layoutStores, each on its own store unless topo keeps images in
// memory. Clustered nodes form one static-peer cluster at replication 1
// with the default gossip, probe and repair intervals. A non-nil tracer
// wraps every handler and times every peer hop.
func startRound(dir string, topo topology, tr *tracer) (*round, error) {
	n := topo.nodes
	r := &round{dir: dir}
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			os.RemoveAll(dir)
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i, ln := range lns {
		cfg := server.Config{StoreDir: nodeStore(dir, i)}
		if topo.memImages > 0 {
			cfg.StoreDir, cfg.MaxImages = "", topo.memImages
		}
		if topo.clustered {
			cfg.Cluster = cluster.Config{Self: urls[i], Peers: urls, Replication: 1}
			if tr != nil {
				cfg.Cluster.Transport = tr.peerTransport()
			}
		}
		srv, err := server.New(cfg)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			r.close()
			return nil, err
		}
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = tr.wrapHandler(h)
		}
		nd := &node{srv: srv, hs: &http.Server{Handler: h}, url: urls[i], done: make(chan error, 1)}
		go func() { nd.done <- nd.hs.Serve(ln) }()
		r.nodes = append(r.nodes, nd)
	}
	return r, nil
}

// close stops every node: it closes the listeners and connections at
// once (the round's measurements are done, and a graceful drain would
// wait out the cluster's background requests), waits for each serve
// loop to return, releases each server and removes the round's
// directory.
func (r *round) close() error {
	var errs []error
	for _, nd := range r.nodes {
		if err := nd.hs.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, nd := range r.nodes {
		if err := <-nd.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		if err := nd.srv.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := os.RemoveAll(r.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// stats sums the /v1/stats counters of every node (peak in-flight is
// the largest of them).
func (r *round) stats(ctx context.Context, c []*client.Client) (counters, error) {
	var sum counters
	for i := range r.nodes {
		st, err := c[i].Stats(ctx)
		if err != nil {
			return sum, err
		}
		sum.add(st)
	}
	return sum, nil
}

// counters are the /v1/stats fields the per-layer trace reports.
type counters struct {
	calls, pulses, encodes, compileHits uint64
	shed, writeErrors                   uint64
	peakInFlight                        int64
	cacheHits, cacheMisses, evictions   uint64
	puts, putDedups, hits, misses, mmap uint64
	forwarded, fills, peerErrors        uint64
}

func (c *counters) add(st *client.StatsResponse) {
	c.calls += st.Compile.Calls
	c.pulses += st.Compile.Pulses
	c.encodes += st.Compile.Encodes
	c.compileHits += st.Compile.CacheHits
	c.shed += st.Requests.Shed
	c.writeErrors += st.Requests.WriteErrors
	c.peakInFlight = max(c.peakInFlight, st.Requests.PeakInFlight)
	c.cacheHits += st.Cache.Hits
	c.cacheMisses += st.Cache.Misses
	c.evictions += st.Cache.Evictions
	if s := st.Store; s != nil {
		c.puts += s.Puts
		c.putDedups += s.PutDedups
		c.hits += s.Hits
		c.misses += s.Misses
		c.mmap += s.MmapServes
	}
	if s := st.Cluster; s != nil {
		c.forwarded += s.Forwarded
		c.fills += s.PeerFills
		c.peerErrors += s.PeerErrors
	}
}

// sub returns the counter deltas c - b; peak in-flight stays absolute.
func (c counters) sub(b counters) counters {
	return counters{
		calls: c.calls - b.calls, pulses: c.pulses - b.pulses,
		encodes: c.encodes - b.encodes, compileHits: c.compileHits - b.compileHits,
		shed: c.shed - b.shed, writeErrors: c.writeErrors - b.writeErrors,
		peakInFlight: c.peakInFlight,
		cacheHits:    c.cacheHits - b.cacheHits, cacheMisses: c.cacheMisses - b.cacheMisses,
		evictions: c.evictions - b.evictions,
		puts:      c.puts - b.puts, putDedups: c.putDedups - b.putDedups,
		hits: c.hits - b.hits, misses: c.misses - b.misses, mmap: c.mmap - b.mmap,
		forwarded: c.forwarded - b.forwarded, fills: c.fills - b.fills,
		peerErrors: c.peerErrors - b.peerErrors,
	}
}
