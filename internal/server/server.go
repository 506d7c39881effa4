// Package server is compaqt's HTTP/JSON serving layer: a compile
// service wrapping compaqt.Service behind a small REST API, built for
// sustained concurrent traffic.
//
//	POST /v1/compile         single pulse
//	POST /v1/compile/batch   order-stable, dedup-aware batch
//	GET  /v1/images/{name}   stored image, CPQT wire format
//	PUT  /v1/images/{name}   ingest wire bytes (cluster replication)
//	GET  /v1/stats           cache + request metrics (?scope=cluster aggregates)
//	GET  /v1/cluster         ring view + member health (cluster mode)
//	POST /v1/cluster/gossip  membership push-pull exchange (cluster mode)
//	GET  /v1/cluster/digests versioned binding listing (cluster mode)
//	GET  /healthz            liveness ("ok" / "draining")
//
// With Config.Cluster enabled the server is one cell of a
// digest-sharded tier: a GET it cannot answer locally is forwarded to
// the consistent-hash owner of the name's digest (and written through
// to the local store on success), and compiled named images are
// published to the digest's replica set. Membership is gossiped
// (internal/cluster). Every name binding carries a version, stamped
// where a client binds the name and carried with the bytes; a binding
// replaces another only if it is newer. A background anti-entropy loop
// (RepairOnce) pulls the newest binding of every name this node owns or
// holds a copy of from whichever live peer lists it: the one catch-up
// path, for publishes a down replica missed and for rebinds alike.
//
// Request flow: decode (bounded by MaxBodyBytes) -> validate (pulse
// shape, per-request codec overrides against the codec registry) ->
// admission semaphore (MaxInFlight compiles at once; waiters abort on
// client disconnect) -> compaqt.Service worker pool -> response.
// Context cancellation propagates from the client connection all the
// way into the compile fan-out, and Run drains in-flight requests
// before returning on shutdown.
package server

import (
	"bytes"
	"container/list"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"compaqt"
	"compaqt/client"
	"compaqt/internal/cache"
	"compaqt/internal/cluster"
	"compaqt/internal/core"
	"compaqt/internal/store"
)

// Config assembles a Server. The zero value serves with the library
// defaults: intdct-w, NumCPU parallelism, a DefaultCacheSize compile
// cache, and admission sized to the host.
type Config struct {
	// Codec is the default codec name; "" means intdct-w.
	Codec string
	// Window is the default transform window; 0 keeps the codec default.
	Window int
	// Adaptive enables the flat-top repeat path by default.
	Adaptive bool
	// MSETarget, when nonzero, compiles with Algorithm-1 fidelity
	// tuning by default.
	MSETarget float64
	// CacheSize is the compile-cache capacity in entries; 0 selects
	// compaqt.DefaultCacheSize, negative disables the cache.
	CacheSize int
	// Parallelism is the per-compile worker-pool width; 0 means NumCPU.
	Parallelism int
	// MaxInFlight bounds concurrently executing compile requests; 0
	// means 2*NumCPU. Excess requests queue on the admission semaphore
	// and abort if their client disconnects while waiting.
	MaxInFlight int
	// AdmissionWait bounds how long an over-capacity request queues for
	// a compile slot before the server sheds it with 429 + Retry-After
	// (load-shedding beats queue collapse: a shed client backs off and
	// retries, a queued one ties up a connection). 0 means 10s;
	// negative restores unbounded queueing (the request waits as long
	// as its client does).
	AdmissionWait time.Duration
	// MaxBodyBytes bounds a request body; 0 means 64 MiB.
	MaxBodyBytes int64
	// MaxBatchPulses bounds the pulse count of one batch; 0 means 8192.
	MaxBatchPulses int
	// MaxImages bounds the image index; the oldest image is
	// evicted beyond it. 0 means 128.
	MaxImages int
	// DrainTimeout bounds Run's graceful shutdown; 0 means 30s.
	DrainTimeout time.Duration
	// StoreDir, when non-empty, persists compiled images to a
	// content-addressed store rooted there: GET /v1/images/{name}
	// serves from it across restarts (mmap, zero-copy) and /v1/stats
	// reports its activity.
	StoreDir string
	// StoreMaxBytes bounds the persistent store; 0 means
	// store.DefaultMaxBytes.
	StoreMaxBytes int64
	// Cluster, when enabled (Self + Peers), joins this server to a
	// digest-sharded serving tier: image GETs it cannot answer locally
	// are forwarded to the key's consistent-hash owner and written
	// through to the local index and store, and compiled named images
	// are published to the owner and its ring successors. See
	// internal/cluster.
	Cluster cluster.Config
	// RepairInterval paces the cluster's background anti-entropy loop:
	// each round pulls, for every name this node owns or holds a copy
	// of, any newer binding a live peer lists. 0 means 5s; negative
	// disables the loop (tests call RepairOnce directly). Ignored
	// without Cluster.
	RepairInterval time.Duration
	// ReadHeaderTimeout, ReadTimeout and IdleTimeout harden Run's
	// http.Server against slow and stalled clients (slowloris): 0
	// selects the defaults (5s, 2m, 2m); negative disables a timeout.
	// WriteTimeout is deliberately not set — large batch compiles
	// legitimately take a while to answer, and the drain path already
	// bounds shutdown. Handlers mounted via Handler() are unaffected;
	// the timeouts belong to the listener Run owns.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	IdleTimeout       time.Duration
}

func (c Config) withDefaults() Config {
	if c.Codec == "" {
		c.Codec = "intdct-w"
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.NumCPU()
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 2 * runtime.NumCPU()
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxBatchPulses == 0 {
		c.MaxBatchPulses = 8192
	}
	if c.MaxImages == 0 {
		c.MaxImages = 128
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.AdmissionWait == 0 {
		c.AdmissionWait = 10 * time.Second
	}
	// Resolve the listener timeouts to their final values: 0 selects
	// the safe default, negative means disabled (0 on http.Server).
	resolve := func(d, def time.Duration) time.Duration {
		switch {
		case d == 0:
			return def
		case d < 0:
			return 0
		}
		return d
	}
	c.ReadHeaderTimeout = resolve(c.ReadHeaderTimeout, 5*time.Second)
	c.ReadTimeout = resolve(c.ReadTimeout, 2*time.Minute)
	c.IdleTimeout = resolve(c.IdleTimeout, 2*time.Minute)
	switch {
	case c.CacheSize == 0:
		c.CacheSize = compaqt.DefaultCacheSize
	case c.CacheSize < 0:
		c.CacheSize = 0
	}
	return c
}

// Server is the HTTP compile service. Build one with New, mount
// Handler (httptest, custom servers) or call Run (owns the listener
// and drains gracefully when its context is canceled).
type Server struct {
	cfg Config
	mux *http.ServeMux

	// svc is the default-configuration service (it owns the compile
	// cache); derived holds per-override services, built on demand,
	// keyed by the override fingerprint, and evicted least-recently-
	// used at maxDerived (derivedLL front = most recently used).
	svc       *compaqt.Service
	derivedMu sync.Mutex
	derived   map[string]*list.Element
	derivedLL *list.List

	// sem is the admission semaphore bounding concurrent compiles.
	sem chan struct{}

	// images is the image index: name -> wire bytes, for GET
	// /v1/images/{name}, publish, include_image and the digest
	// listing. imageOrder tracks insertion for FIFO eviction at
	// MaxImages.
	imagesMu   sync.Mutex
	images     map[string]*storedImage
	imageOrder []string

	// clock is the highest binding version this node has stamped or
	// accepted; stamp draws the next one from it.
	clock atomic.Uint64

	// store, when non-nil, is the persistent image store
	// (Config.StoreDir): image GETs fall back to it when the index
	// misses — the warm-restart path. storeImage is its only writer,
	// so only named images are persisted, once each; the services
	// compile without a store.
	store *store.Store

	// cluster, when non-nil, is this node's membership in the
	// digest-sharded serving tier: image GETs missing locally forward
	// to the ring owner, compiles publish to the replica set.
	cluster *cluster.Cluster

	// ctx scopes the background repair loop and its peer calls; Close
	// cancels it, then waits for repairDone, which the loop closes on
	// exit (nil when no loop runs).
	ctx        context.Context
	cancel     context.CancelFunc
	repairDone chan struct{}

	draining atomic.Bool
	m        metrics

	// writeErrLog gates the one diagnostic log line for response
	// write/encode failures; the ongoing count lives in the metrics.
	writeErrLog sync.Once
}

// derivedEntry is one memoized override service in the derived LRU.
type derivedEntry struct {
	key string
	svc *compaqt.Service
}

// storedImage is one indexed image, served, published and listed as
// exactly its wire bytes, with the version of its binding. wire is a
// buffer nothing else writes — a compile's own serialization, or a
// fresh PUT or peer body trimmed to the image ValidateImageBytes
// measured — so every response shares it.
// A compile is indexed as img and serialized on first use, at most
// once, after which img is dropped: a compile nothing reads as bytes
// costs no memory beyond what its entries share with the compile
// cache. A compile the wire format cannot hold (a codec other than
// int-DCT-W) keeps the serialization error instead: GET answers it
// 400, and publish, the store and the digest listing skip it.
type storedImage struct {
	version uint64

	serialize sync.Once
	img       *compaqt.Image
	wire      []byte
	err       error

	// key is the content digest of wire, computed on first use — a
	// store put, the digest listing, a repair check — at most once.
	digestOnce sync.Once
	key        cache.Key
}

// bytes returns the image's wire bytes, serializing a compile on first
// use.
func (si *storedImage) bytes() ([]byte, error) {
	si.serialize.Do(func() {
		if si.img == nil {
			return
		}
		wire, err := si.img.AppendTo(make([]byte, 0, si.img.Size()))
		if err != nil {
			si.err = err
		} else {
			si.wire = wire
		}
		si.img = nil
	})
	return si.wire, si.err
}

// digest returns the content digest of an image whose bytes() succeeded.
func (si *storedImage) digest() cache.Key {
	si.digestOnce.Do(func() { si.key = store.DigestWire(si.wire) })
	return si.key
}

// supersedes reports whether si's binding replaces one at version v
// whose digest key returns (store.Supersedes). The digests are only
// read on a version tie; an image without wire bytes ranks as the zero
// digest.
func (si *storedImage) supersedes(v uint64, key func() cache.Key) bool {
	if si.version != v {
		return si.version > v
	}
	return store.Supersedes(si.version, si.keyOrZero(), v, key())
}

// keyOrZero returns the image's digest, or the zero key for an image
// the wire format cannot hold.
func (si *storedImage) keyOrZero() cache.Key {
	if _, err := si.bytes(); err != nil {
		return cache.Key{}
	}
	return si.digest()
}

// receivedImage validates image bytes that arrived from a client or a
// peer and returns exactly the image for the index. Bytes trailing the
// image are dropped, the image copied out so the index never pins
// them.
func receivedImage(b []byte) (*storedImage, error) {
	n, err := core.ValidateImageBytes(b)
	if err != nil {
		return nil, err
	}
	if n < len(b) {
		b = bytes.Clone(b[:n])
	}
	return &storedImage{wire: b}, nil
}

// metrics are the server's counters; all fields are atomics so the
// hot path never takes a lock.
type metrics struct {
	requests     atomic.Uint64
	clientErrors atomic.Uint64
	serverErrors atomic.Uint64
	canceled     atomic.Uint64
	// shed counts requests turned away with 429 at the admission
	// deadline — the overload signal, distinct from client errors.
	shed         atomic.Uint64
	inFlight     atomic.Int64
	peakInFlight atomic.Int64

	compileCalls  atomic.Uint64
	compileErrors atomic.Uint64
	pulses        atomic.Uint64
	encodes       atomic.Uint64
	cacheHits     atomic.Uint64

	// writeErrors counts response serialization/write failures that
	// would otherwise vanish (the client is often already gone).
	writeErrors atomic.Uint64
}

// observe folds a compaqt.CompileEvent into the counters; it is
// installed on every service the server builds.
func (m *metrics) observe(ev compaqt.CompileEvent) {
	m.compileCalls.Add(1)
	if ev.Err != nil {
		m.compileErrors.Add(1)
		return
	}
	m.pulses.Add(uint64(ev.Pulses))
	m.encodes.Add(uint64(ev.Encodes))
	m.cacheHits.Add(uint64(ev.CacheHits))
}

// New builds a Server, validating the default configuration against
// the codec registry.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		derived:   map[string]*list.Element{},
		derivedLL: list.New(),
		sem:       make(chan struct{}, cfg.MaxInFlight),
		images:    map[string]*storedImage{},
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	svc, err := compaqt.New(s.baseOptions(nil)...)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.svc = svc

	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, cfg.StoreMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.store = st
		// Versions stamped from here on order after every binding the
		// store recovered, whatever the wall clock did across the
		// restart.
		for _, b := range st.Bindings() {
			s.observe(b.Version)
		}
	}
	if cfg.Cluster.Enabled() {
		cl, err := cluster.New(cfg.Cluster)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
		s.cluster = cl
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("POST /v1/compile/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/images/{name}", s.handleImage)
	mux.HandleFunc("PUT /v1/images/{name}", s.handleImagePut)
	if s.cluster != nil {
		mux.HandleFunc("GET /v1/cluster", s.handleCluster)
		mux.HandleFunc("POST /v1/cluster/gossip", s.handleGossip)
		mux.HandleFunc("GET /v1/cluster/digests", s.handleDigests)
		if ri := cfg.RepairInterval; ri >= 0 {
			if ri == 0 {
				ri = 5 * time.Second
			}
			s.repairDone = make(chan struct{})
			go s.repairLoop(ri)
		}
	}
	s.mux = mux
	return s, nil
}

// baseOptions resolves the service options for a request: the server
// defaults overlaid with the per-request overrides (nil for none).
// Derived (override) services run without a compile cache — the cache
// belongs to the default configuration, and per-request permutations
// must not multiply resident cache memory — but keep the worker pool
// and in-batch dedup.
func (s *Server) baseOptions(o *client.CompileOptions) []compaqt.Option {
	cfg := s.cfg
	opts := []compaqt.Option{
		compaqt.WithParallelism(cfg.Parallelism),
		compaqt.WithObserver(s.m.observe),
	}
	if o.IsZero() {
		opts = append(opts, compaqt.WithCodec(cfg.Codec), compaqt.WithAdaptive(cfg.Adaptive))
		if cfg.Window != 0 {
			opts = append(opts, compaqt.WithWindow(cfg.Window))
		}
		if cfg.MSETarget > 0 {
			opts = append(opts, compaqt.WithMSETarget(cfg.MSETarget))
		}
		if cfg.CacheSize > 0 {
			opts = append(opts, compaqt.WithCache(cfg.CacheSize))
		}
		return opts
	}
	// Overlay semantics: unset fields inherit the server defaults while
	// the codec is unchanged; overriding the codec drops inheritance of
	// the codec-shaped knobs (window, adaptive, fidelity), since values
	// tuned for the default codec rarely transfer — the new codec's own
	// defaults apply instead. The three fidelity knobs are an exclusive
	// group: a client setting any of them replaces the server's
	// fidelity configuration wholesale.
	name := o.Codec
	if name == "" {
		name = cfg.Codec
	}
	sameCodec := name == cfg.Codec
	opts = append(opts, compaqt.WithCodec(name))

	switch {
	case o.Adaptive != nil:
		opts = append(opts, compaqt.WithAdaptive(*o.Adaptive))
	case sameCodec:
		opts = append(opts, compaqt.WithAdaptive(cfg.Adaptive))
	}
	switch {
	case o.Window != 0:
		opts = append(opts, compaqt.WithWindow(o.Window))
	case sameCodec && cfg.Window != 0:
		opts = append(opts, compaqt.WithWindow(cfg.Window))
	}
	// Forward every set fidelity knob — conflicting combinations (e.g.
	// threshold + MSE target) surface as the library's own 400-mapped
	// validation error rather than being silently resolved here.
	if o.Threshold != 0 {
		opts = append(opts, compaqt.WithThreshold(o.Threshold))
	}
	if o.FidelityTarget != 0 {
		opts = append(opts, compaqt.WithFidelityTarget(o.FidelityTarget))
	}
	if o.MSETarget != 0 {
		opts = append(opts, compaqt.WithMSETarget(o.MSETarget))
	}
	if o.Threshold == 0 && o.FidelityTarget == 0 && o.MSETarget == 0 &&
		sameCodec && cfg.MSETarget > 0 {
		opts = append(opts, compaqt.WithMSETarget(cfg.MSETarget))
	}
	return opts
}

// maxDerived bounds the per-override service memoization; beyond it
// the least-recently-used fingerprint is evicted (a rebuilt service is
// cheap — it holds no cache — but steady override mixes larger than
// the cap must not evict the fingerprints they keep using, which a
// wholesale reset would).
const maxDerived = 64

// service resolves the compaqt.Service for a request's overrides: the
// default service for no overrides, a (cached) derived one otherwise.
// Option validation errors surface here as 400s.
func (s *Server) service(o *client.CompileOptions) (*compaqt.Service, error) {
	if o.IsZero() {
		return s.svc, nil
	}
	adaptive := "-" // tri-state: unset inherits the server default
	if o.Adaptive != nil {
		adaptive = fmt.Sprintf("%t", *o.Adaptive)
	}
	key := fmt.Sprintf("%s|%d|%g|%g|%g|%s", o.Codec, o.Window, o.Threshold, o.FidelityTarget, o.MSETarget, adaptive)
	s.derivedMu.Lock()
	defer s.derivedMu.Unlock()
	if el, ok := s.derived[key]; ok {
		s.derivedLL.MoveToFront(el)
		return el.Value.(*derivedEntry).svc, nil
	}
	svc, err := compaqt.New(s.baseOptions(o)...)
	if err != nil {
		return nil, err
	}
	s.derived[key] = s.derivedLL.PushFront(&derivedEntry{key: key, svc: svc})
	for len(s.derived) > maxDerived {
		back := s.derivedLL.Back()
		s.derivedLL.Remove(back)
		delete(s.derived, back.Value.(*derivedEntry).key)
	}
	return svc, nil
}

// acquire admits one compile into the bounded in-flight section. A
// saturated server queues the request up to AdmissionWait and then
// sheds it with 429 + Retry-After — overload becomes an explicit,
// retryable signal instead of an ever-growing queue. The fast path is
// one non-blocking channel send; the timer exists only while actually
// queued. It fails immediately when the caller's context is canceled
// (client disconnect, shutdown).
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
	default:
		if err := s.acquireSlow(ctx); err != nil {
			return err
		}
	}
	n := s.m.inFlight.Add(1)
	for {
		peak := s.m.peakInFlight.Load()
		if n <= peak || s.m.peakInFlight.CompareAndSwap(peak, n) {
			return nil
		}
	}
}

// acquireSlow is acquire's queued path: wait for a slot, the caller's
// disconnect, or the admission deadline, whichever comes first.
func (s *Server) acquireSlow(ctx context.Context) error {
	if s.cfg.AdmissionWait < 0 {
		select {
		case s.sem <- struct{}{}:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// A slot may have freed between acquire's fast-path miss and here.
	// Poll once more non-blockingly before arming the deadline: with a
	// zero (or near-zero) AdmissionWait the select below would race an
	// already-expired timer against an already-free slot and shed the
	// request half the time — a request must only shed when the server
	// is actually full at its deadline.
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.cfg.AdmissionWait == 0 {
		return s.shedErr()
	}
	t := time.NewTimer(s.cfg.AdmissionWait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return s.shedErr()
	}
}

// shedErr counts and builds the 429 admission-shedding response.
func (s *Server) shedErr() error {
	s.m.shed.Add(1)
	return &httpError{
		status:     http.StatusTooManyRequests,
		msg:        fmt.Sprintf("server is at compile capacity (%d in flight); retry after backoff", s.cfg.MaxInFlight),
		retryAfter: time.Second,
	}
}

func (s *Server) release() {
	s.m.inFlight.Add(-1)
	<-s.sem
}

// stamp returns a fresh binding version for a client's write: the
// wall clock in nanoseconds, raised above every version this node has
// stamped or accepted (a hybrid logical clock). The wall clock orders
// rebinds made on nodes that never saw each other's writes; the floor
// orders this node's writes after everything it holds, whatever its
// clock says.
func (s *Server) stamp() uint64 {
	for {
		cur := s.clock.Load()
		v := max(uint64(time.Now().UnixNano()), cur+1)
		if s.clock.CompareAndSwap(cur, v) {
			return v
		}
	}
}

// observe raises the stamp floor to a version this node accepts.
func (s *Server) observe(v uint64) {
	for cur := s.clock.Load(); v > cur && !s.clock.CompareAndSwap(cur, v); cur = s.clock.Load() {
	}
}

// storeImage binds name to si when si's binding supersedes the name's
// current one (the index's, else the store's), and reports whether it
// did. A stale publish, fill or repair changes nothing. An accepted
// image is indexed, evicting the oldest indexed image beyond
// MaxImages, and written through to the persistent store when one is
// configured. The store applies the same rule, so concurrent writes of
// one name leave the index and the store on the same winner.
func (s *Server) storeImage(name string, si *storedImage) bool {
	s.observe(si.version)
	s.imagesMu.Lock()
	cur, indexed := s.images[name]
	stale := indexed && !si.supersedes(cur.version, cur.keyOrZero)
	if !indexed && s.store != nil {
		if b, ok := s.store.Lookup(name); ok {
			stale = !si.supersedes(b.Version, func() cache.Key { return b.Key })
		}
	}
	if stale {
		s.imagesMu.Unlock()
		return false
	}
	if !indexed {
		s.imageOrder = append(s.imageOrder, name)
		for len(s.imageOrder) > s.cfg.MaxImages {
			delete(s.images, s.imageOrder[0])
			s.imageOrder = s.imageOrder[1:]
		}
	}
	s.images[name] = si
	s.imagesMu.Unlock()
	if s.store == nil {
		return true
	}
	if wire, err := si.bytes(); err == nil {
		// The handlers refuse names and PUT bodies the store cannot
		// take, so Put can fail only in three ways, none of them this
		// request's to report: a failed publish, which Put records for
		// Healthy; a store closed by the drain; or a compiled image over
		// MaxObjectBytes, which needs -max-body set above that cap.
		_ = s.store.Put(name, si.digest(), si.version, wire)
	}
	return true
}

// binding is a name's current binding on this node as the cluster
// compares them.
type binding struct {
	version uint64
	key     cache.Key
	size    int64
}

// current returns name's current binding: the index's, else the
// store's; GET serves the same one. A name whose indexed image has no
// wire form has none a peer could fetch.
func (s *Server) current(name string) (binding, bool) {
	if si, ok := s.image(name); ok {
		wire, err := si.bytes()
		if err != nil {
			return binding{}, false
		}
		return binding{si.version, si.digest(), int64(len(wire))}, true
	}
	if s.store != nil {
		if b, ok := s.store.Lookup(name); ok {
			return binding{b.Version, b.Key, b.Size}, true
		}
	}
	return binding{}, false
}

func (s *Server) image(name string) (*storedImage, bool) {
	s.imagesMu.Lock()
	defer s.imagesMu.Unlock()
	si, ok := s.images[name]
	return si, ok
}

// imageNames lists every name a GET /v1/images/{name} would serve:
// the index united with the persistent store's bindings
// (which outlive restarts and index eviction), deduplicated and
// sorted.
func (s *Server) imageNames() []string {
	s.imagesMu.Lock()
	names := make([]string, len(s.imageOrder))
	copy(names, s.imageOrder)
	s.imagesMu.Unlock()
	if s.store != nil {
		have := make(map[string]bool, len(names))
		for _, n := range names {
			have[n] = true
		}
		for _, n := range s.store.Names() {
			if !have[n] {
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

// Handler returns the server's route table, ready to mount on any
// http.Server (or httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Service exposes the default-configuration service (tests, embedders).
func (s *Server) Service() *compaqt.Service { return s.svc }

// Close stops the cluster's gossip and repair loops, cancelling a
// round in flight in each and waiting for it to end, and releases the
// server's persistent store (flushing its manifest and releasing the
// directory lock), so a successor process can open the same directory
// immediately. It is idempotent and safe without either; Run calls it
// after draining.
func (s *Server) Close() error {
	s.cancel()
	if s.repairDone != nil {
		<-s.repairDone
	}
	if s.cluster != nil {
		s.cluster.Close()
	}
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// Run serves on addr until ctx is canceled, then stops accepting
// connections, flips /healthz to "draining", and waits up to
// DrainTimeout for in-flight requests before returning. The ready
// callback, when non-nil, receives the bound listener address once the
// server is accepting.
func (s *Server) Run(ctx context.Context, addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Request contexts deliberately derive from their connections, not
	// from ctx: graceful shutdown must let in-flight compiles finish
	// (Shutdown waits for them), not cancel them mid-encode. The read
	// and idle timeouts bound slow/stalled clients (slowloris); write
	// timeouts are deliberately absent — see Config.
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		ReadTimeout:       s.cfg.ReadTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
	}
	if ready != nil {
		ready(ln.Addr())
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		s.Close()
		return fmt.Errorf("server: drain: %w", err)
	}
	<-errc // Serve has returned http.ErrServerClosed
	// With the last request drained, flush and release the persistent
	// store: every compiled image is already durable (puts fsync), this
	// frees the directory lock for the next process.
	return s.Close()
}

// isCancel reports whether err is a context cancellation (client
// disconnect or shutdown) rather than a compile failure.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
