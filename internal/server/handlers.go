package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"compaqt"
	"compaqt/client"
	"compaqt/codec"
	"compaqt/internal/cluster"
	"compaqt/internal/core"
	"compaqt/internal/store"
	"compaqt/qctrl"
	"compaqt/waveform"
)

// httpError is an error with a status code attached; handlers build
// them for every client-visible failure. A nonzero retryAfter is sent
// as a Retry-After header — the server's explicit backoff hint for
// retryable failures (429 shedding, degraded health).
type httpError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// checkImageName refuses an image name the store cannot bind. Every
// node refuses it, with a store or without, so the nodes of a cluster
// accept the same names.
func checkImageName(name string) error {
	if len(name) > store.MaxNameLen {
		return badRequest("image name of %d bytes exceeds the %d-byte limit", len(name), store.MaxNameLen)
	}
	return nil
}

// jsonScratch pairs a reusable encode buffer with a json.Encoder bound
// to it, so steady-state responses stage without allocating either.
type jsonScratch struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonPool = sync.Pool{New: func() any {
	sc := &jsonScratch{}
	sc.enc = json.NewEncoder(&sc.buf)
	return sc
}}

// jsonContentType is assigned into header maps directly: the shared
// slice spares one []string allocation per response.
var jsonContentType = []string{"application/json"}

// octetStreamContentType is jsonContentType's counterpart for image
// bodies.
var octetStreamContentType = []string{"application/octet-stream"}

// writeJSON stages the response in a pooled buffer and writes it in
// one call. Encode and write failures are counted in the stats
// (write_errors) and logged once per server — by the time a write
// fails the client is usually gone, but a stream of failures must not
// be invisible.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	sc := jsonPool.Get().(*jsonScratch)
	sc.buf.Reset()
	if err := sc.enc.Encode(v); err != nil {
		// Responses are plain data structs; failing to encode one is a
		// server-side bug, not client behavior.
		jsonPool.Put(sc)
		s.noteWriteError(err)
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"response encoding failed"}`+"\n")
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if _, err := w.Write(sc.buf.Bytes()); err != nil {
		s.noteWriteError(err)
	}
	jsonPool.Put(sc)
}

// noteWriteError counts a response encode/write failure and logs the
// first one (the counter keeps the ongoing tally; one log line is
// enough to point at the failure mode without flooding on a storm of
// disconnecting clients).
func (s *Server) noteWriteError(err error) {
	s.m.writeErrors.Add(1)
	s.writeErrLog.Do(func() {
		log.Printf("server: response write failed (first occurrence, counting silently from here): %v", err)
	})
}

// fail maps an error to an HTTP response and bumps the right counter.
// Cancellations get 499 (the de-facto "client closed request" code) —
// by then the client is usually gone and the write is best-effort.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var he *httpError
	status := http.StatusInternalServerError
	switch {
	case errors.As(err, &he):
		status = he.status
		if he.retryAfter > 0 {
			secs := int(he.retryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
	case isCancel(err):
		status = 499
	}
	switch {
	case status == 499:
		s.m.canceled.Add(1)
	case status >= 500:
		s.m.serverErrors.Add(1)
	default:
		s.m.clientErrors.Add(1)
	}
	s.writeJSON(w, status, client.ErrorResponse{Error: err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	resp := client.HealthResponse{Status: "ok"}
	// A degraded store (read-only directory, failing GC) is reported
	// but, by default, does not fail the health check: compiles and
	// reads still work, only persistence of new images is impaired.
	var storeErr error
	if s.store != nil {
		if storeErr = s.store.Healthy(); storeErr != nil {
			resp.Store = "degraded: " + storeErr.Error()
		} else {
			resp.Store = "ok"
		}
	}
	if s.draining.Load() {
		resp.Status = "draining"
		s.writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	// ?strict=1 opts a probe into treating store degradation as a
	// failing check (503 + Retry-After) — for orchestrators that should
	// stop routing durability-sensitive work here until the store's
	// re-probe loop heals it.
	if storeErr != nil && r.URL.Query().Get("strict") == "1" {
		resp.Status = "degraded"
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// requestContext derives the compile context for a request. When the
// client declares its per-attempt budget in X-Request-Timeout (a Go
// duration string, or bare seconds), the server adopts it as a context
// deadline, so an attempt the client has already abandoned stops
// consuming compile capacity instead of running to completion for
// nobody. Returns a nil cancel when no budget was declared.
func requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	v := r.Header.Get("X-Request-Timeout")
	if v == "" {
		return r.Context(), nil, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		secs, ferr := strconv.ParseFloat(v, 64)
		if ferr != nil {
			return nil, nil, badRequest("invalid X-Request-Timeout %q (want a duration like 2s)", v)
		}
		// Go leaves converting an out-of-range float to an integer to
		// the implementation, so range-check before converting; the
		// negated comparison also catches NaN.
		ns := secs * float64(time.Second)
		if !(math.Abs(ns) < math.MaxInt64) {
			return nil, nil, badRequest("X-Request-Timeout %q is out of range (want finite seconds, at most %v)", v, time.Duration(math.MaxInt64))
		}
		d = time.Duration(ns)
	}
	if d <= 0 {
		return nil, nil, badRequest("X-Request-Timeout %q must be positive", v)
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// mapDeadline distinguishes the server-enforced header deadline from a
// true client disconnect: when the derived deadline fired while the
// connection is still live, the right answer is 504 (the work exceeded
// the declared budget), not 499 (nobody is listening).
func mapDeadline(r *http.Request, hadDeadline bool, err error) error {
	if hadDeadline && errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil {
		return &httpError{
			status: http.StatusGatewayTimeout,
			msg:    "compile exceeded the X-Request-Timeout budget",
		}
	}
	return err
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	// ?scope=cluster aggregates across the whole tier. Forwarded
	// requests always serve local scope — peer stats fetches ride the
	// forwarded clients, so the fan-out can never recurse.
	if r.URL.Query().Get("scope") == "cluster" &&
		s.cluster != nil && r.Header.Get(cluster.ForwardedHeader) == "" {
		s.handleStatsCluster(w, r)
		return
	}
	resp := s.localStats()
	s.writeJSON(w, http.StatusOK, resp)
}

// localStats assembles this node's /v1/stats body.
func (s *Server) localStats() client.StatsResponse {
	cs := s.svc.CacheStats()
	resp := client.StatsResponse{
		Codec:  s.svc.Codec().Name(),
		Codecs: codec.Names(),
		Requests: client.RequestStats{
			Total:        s.m.requests.Load(),
			ClientErrors: s.m.clientErrors.Load(),
			ServerErrors: s.m.serverErrors.Load(),
			Canceled:     s.m.canceled.Load(),
			Shed:         s.m.shed.Load(),
			WriteErrors:  s.m.writeErrors.Load(),
			InFlight:     s.m.inFlight.Load(),
			PeakInFlight: s.m.peakInFlight.Load(),
		},
		Compile: client.CompileStats{
			Calls:     s.m.compileCalls.Load(),
			Errors:    s.m.compileErrors.Load(),
			Pulses:    s.m.pulses.Load(),
			Encodes:   s.m.encodes.Load(),
			CacheHits: s.m.cacheHits.Load(),
		},
		Cache: client.CacheStats{
			Hits:       cs.Hits,
			Misses:     cs.Misses,
			Evictions:  cs.Evictions,
			Entries:    cs.Entries,
			BytesSaved: cs.BytesSaved,
			HitRate:    cs.HitRate(),
		},
		Images: s.imageNames(),
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Store = &client.StoreStats{
			Objects:         st.Objects,
			Names:           st.Names,
			Bytes:           st.Bytes,
			MaxBytes:        st.MaxBytes,
			Hits:            st.Hits,
			Misses:          st.Misses,
			Puts:            st.Puts,
			PutDedups:       st.PutDedups,
			Evictions:       st.Evictions,
			EvictedBytes:    st.EvictedBytes,
			MmapServes:      st.MmapServes,
			CopyServes:      st.CopyServes,
			RecoveredWrites: st.RecoveredWrites,
			Probes:          st.Probes,
			Recovered:       st.Recovered,
			OrphansCleaned:  st.OrphansCleaned,
		}
	}
	if s.cluster != nil {
		resp.Cluster = s.clusterStats()
	}
	return resp
}

// bodyBufPool recycles request-body staging buffers across requests.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeBody stages a bounded request body in a pooled buffer and hands
// it to decode, which must copy whatever it keeps: the buffer goes back
// to the pool for the next request.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, decode func([]byte) error) error {
	switch {
	case r.ContentLength > s.cfg.MaxBodyBytes:
		// Declared too large: reject before reading a byte.
		return &httpError{
			status: http.StatusRequestEntityTooLarge,
			msg:    fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes),
		}
	case r.ContentLength < 0:
		// Unknown length (chunked): bound the read with MaxBytesReader.
		// Declared lengths skip the wrapper — net/http already refuses
		// to read past ContentLength.
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	buf := bodyBufPool.Get().(*bytes.Buffer)
	defer bodyBufPool.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &httpError{
				status: http.StatusRequestEntityTooLarge,
				msg:    fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			}
		}
		return badRequest("reading request body: %v", err)
	}
	if err := decode(buf.Bytes()); err != nil {
		return badRequest("invalid JSON body: %v", err)
	}
	return nil
}

// compileScratch is the pooled decode target of POST /v1/compile: the
// request struct keeps its waveform slices' capacity across requests,
// so steady-state decodes reuse the same backing arrays. Nothing
// downstream retains the request (compilation quantizes into fresh
// arrays and entries carry their own strings), which is what makes the
// pooling safe.
type compileScratch struct {
	req client.CompileRequest
	// resp is the staged response; passing its address to writeJSON
	// boxes a pointer instead of copying the struct into an interface.
	resp client.CompileResponse
	// pulse/wf/one are the decoded pulse's storage. Safe to reuse:
	// the single-pulse compile path runs serially (no worker retains
	// the pulse past the call) and compilation copies everything it
	// keeps (quantized samples, key strings).
	pulse qctrl.Pulse
	wf    waveform.Waveform
	one   [1]*qctrl.Pulse
}

var compileScratchPool = sync.Pool{New: func() any { return new(compileScratch) }}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	sc := compileScratchPool.Get().(*compileScratch)
	defer compileScratchPool.Put(sc)
	req := &sc.req
	if err := s.decodeBody(w, r, func(b []byte) error { return client.DecodeCompileRequest(b, req) }); err != nil {
		s.fail(w, err)
		return
	}
	if err := checkImageName(req.Image); err != nil {
		s.fail(w, err)
		return
	}
	p := &sc.pulse
	if err := req.Pulse.PulseInto(p, &sc.wf); err != nil {
		s.fail(w, badRequest("%v", err))
		return
	}
	svc, err := s.service(req.Options)
	if err != nil {
		s.fail(w, badRequest("%v", err))
		return
	}
	ctx, cancel, err := requestContext(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	if cancel != nil {
		defer cancel()
	}
	if err := s.acquire(ctx); err != nil {
		s.fail(w, mapDeadline(r, cancel != nil, err))
		return
	}
	defer s.release()
	name := req.Image
	if name == "" {
		name = p.Waveform.Name // PulseSpec.Pulse sets this to p.Key()
	}
	sc.one[0] = p
	img, err := svc.CompilePulses(ctx, name, sc.one[:])
	if err != nil {
		s.fail(w, mapDeadline(r, cancel != nil, err))
		return
	}
	if req.Image != "" {
		s.bindCompiled(ctx, req.Image, &storedImage{img: img})
	}
	sc.resp = client.CompileResponse{
		Codec: svc.Codec().Name(),
		Entry: entrySummary(svc, &img.Entries[0]),
	}
	s.writeJSON(w, http.StatusOK, &sc.resp)
}

// batchScratch is the pooled decode target of POST /v1/compile/batch:
// the pulse list and every pulse's I/Q arrays keep their capacity
// across requests, as do the in-process pulses and waveforms they
// become. Pooling is safe for compileScratch's reason: CompileBatch
// returns only after its last worker, and keeps nothing of its input.
type batchScratch struct {
	req    client.BatchRequest
	resp   client.BatchResponse
	pulses []qctrl.Pulse
	wfs    []waveform.Waveform
	ptrs   []*qctrl.Pulse
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	req := &sc.req
	if err := s.decodeBody(w, r, func(b []byte) error { return client.DecodeBatchRequest(b, req) }); err != nil {
		s.fail(w, err)
		return
	}
	if err := checkImageName(req.Image); err != nil {
		s.fail(w, err)
		return
	}
	n := len(req.Pulses)
	if n == 0 {
		s.fail(w, badRequest("batch has no pulses"))
		return
	}
	if n > s.cfg.MaxBatchPulses {
		s.fail(w, &httpError{
			status: http.StatusRequestEntityTooLarge,
			msg:    fmt.Sprintf("batch of %d pulses exceeds the %d-pulse limit", n, s.cfg.MaxBatchPulses),
		})
		return
	}
	if cap(sc.ptrs) < n {
		sc.pulses = make([]qctrl.Pulse, n)
		sc.wfs = make([]waveform.Waveform, n)
		sc.ptrs = make([]*qctrl.Pulse, n)
	}
	pulses := sc.ptrs[:n]
	for i := range req.Pulses {
		p := &sc.pulses[i]
		if err := req.Pulses[i].PulseInto(p, &sc.wfs[i]); err != nil {
			s.fail(w, badRequest("pulse %d: %v", i, err))
			return
		}
		pulses[i] = p
	}
	svc, err := s.service(req.Options)
	if err != nil {
		s.fail(w, badRequest("%v", err))
		return
	}
	ctx, cancel, err := requestContext(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	if cancel != nil {
		defer cancel()
	}
	if err := s.acquire(ctx); err != nil {
		s.fail(w, mapDeadline(r, cancel != nil, err))
		return
	}
	defer s.release()
	name := req.Image
	if name == "" {
		name = "batch"
	}
	img, err := svc.CompileBatch(ctx, name, pulses)
	if err != nil {
		s.fail(w, mapDeadline(r, cancel != nil, err))
		return
	}
	var si *storedImage
	if req.Image != "" {
		si = &storedImage{img: img}
		s.bindCompiled(ctx, req.Image, si)
	}
	entries := sc.resp.Entries[:0]
	for i := range img.Entries {
		entries = append(entries, entrySummary(svc, &img.Entries[i]))
	}
	sc.resp = client.BatchResponse{
		Codec:   svc.Codec().Name(),
		Entries: entries,
		Stats:   imageStats(img),
	}
	if req.IncludeImage {
		// A named image encodes its indexed bytes; an unnamed one is
		// serialized for this response only.
		if si == nil {
			si = &storedImage{img: img}
		}
		wire, err := si.bytes()
		if err != nil {
			// Typically: the wire format stores int-DCT-W only and the
			// batch used another codec. The compile itself succeeded, so
			// report the serialization constraint, not a server fault.
			s.fail(w, badRequest("include_image: %v", err))
			return
		}
		sc.resp.ImageB64 = base64.StdEncoding.EncodeToString(wire)
	}
	s.writeJSON(w, http.StatusOK, &sc.resp)
}

// handleImage serves name's current binding: the index's, else the
// store's. A peer's request (marked forwarded) also gets the binding's
// version, which a fill or a repair binds the bytes at.
func (s *Server) handleImage(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	name := r.PathValue("name")
	forwarded := r.Header.Get(cluster.ForwardedHeader) != ""
	si, ok := s.image(name)
	if !ok {
		// Fall back to the persistent store: images compiled before the
		// last restart (or evicted from the index) serve straight from
		// their mmap'd wire bytes — no recompile, no copy.
		if s.store != nil {
			if blob, hit := s.store.Get(name); hit {
				if forwarded {
					setVersion(w, blob.Version())
				}
				s.writeWire(w, blob.Bytes())
				blob.Release()
				return
			}
		}
		// Last resort: the cluster tier. A request already forwarded by
		// a peer stops here — one hop only, so two nodes with divergent
		// liveness views can never bounce a miss between each other.
		if s.cluster != nil && !forwarded {
			s.serveImageForwarded(w, r, name)
			return
		}
		s.fail(w, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("no stored image %q", name)})
		return
	}
	wire, err := si.bytes()
	if err != nil {
		s.fail(w, badRequest("image %q: %v", name, err))
		return
	}
	if forwarded {
		setVersion(w, si.version)
	}
	s.writeWire(w, wire)
}

// setVersion sets the binding-version header of a peer's answer.
func setVersion(w http.ResponseWriter, v uint64) {
	w.Header().Set(client.VersionHeader, strconv.FormatUint(v, 10))
}

// writeWire answers with image wire bytes.
func (s *Server) writeWire(w http.ResponseWriter, wire []byte) {
	h := w.Header()
	h["Content-Type"] = octetStreamContentType
	h.Set("Content-Length", strconv.Itoa(len(wire)))
	if _, err := w.Write(wire); err != nil {
		s.noteWriteError(err)
	}
}

// serveImageForwarded answers a local image miss from the cluster: the
// name's digest routes to its ring owner (and replica successors on
// failure) through the pooled retrying peer client. The peer's bytes
// are validated and exactly the image is indexed at the peer's
// binding version (written through to the store when there is one),
// so each image migrates to every node that serves it, the next GET is
// local, and repair leaves the fill alone until a newer binding
// appears.
func (s *Server) serveImageForwarded(w http.ResponseWriter, r *http.Request, name string) {
	wire, version, from, err := s.cluster.FetchImage(r.Context(), name)
	if err != nil {
		s.failForward(w, name, err)
		return
	}
	// Validate before anything touches local state: a peer, like any
	// network input, is not trusted to hand back a well-formed image,
	// and the store must never be poisoned. This response and every
	// later GET serve the same bytes: the image, without anything the
	// peer sent after it.
	si, err := receivedImage(wire)
	if err != nil {
		s.cluster.NoteInvalidImage(from, err)
		s.fail(w, &httpError{
			status:     http.StatusBadGateway,
			msg:        fmt.Sprintf("image %q: peer returned an invalid image: %v", name, err),
			retryAfter: time.Second,
		})
		return
	}
	// Write-through fill: the index for the next GET, the persistent
	// store (inside storeImage) for restarts. A binding that raced in
	// meanwhile and is newer stays; this answer is the peer's.
	si.version = version
	s.storeImage(name, si)
	s.cluster.NoteFill()
	s.writeWire(w, si.wire)
}

// failForward maps a cluster fetch failure onto the wire: a replica-set
// miss (or an empty live set) is a plain 404, a canceled caller stays a
// cancel, and anything else becomes a retryable 502 so the caller's own
// retry layer takes over.
func (s *Server) failForward(w http.ResponseWriter, name string, err error) {
	var apiErr *client.APIError
	switch {
	case errors.Is(err, cluster.ErrNoPeer),
		errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound:
		s.fail(w, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("no stored image %q", name)})
	case isCancel(err):
		s.fail(w, err)
	default:
		s.fail(w, &httpError{
			status:     http.StatusBadGateway,
			msg:        fmt.Sprintf("image %q: peer fetch failed: %v", name, err),
			retryAfter: time.Second,
		})
	}
}

// handleImagePut ingests serialized wire-format image bytes under a
// name — the receiving half of cluster replication (peers push
// compiled images to their name's replica set here), and a handy admin
// primitive on any node. A peer's PUT carries the binding's version
// (client.VersionHeader) and binds only if that binding is newer than
// the name's current one; a PUT without one is a new client write,
// stamped here. Either way the answer is 204. The body is validated
// before anything is stored, and exactly its image is indexed; the
// store dedups identical content by digest, so re-publishing is a
// metadata touch.
func (s *Server) handleImagePut(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	name := r.PathValue("name")
	if err := checkImageName(name); err != nil {
		s.fail(w, err)
		return
	}
	var version uint64
	if v := r.Header.Get(client.VersionHeader); v != "" {
		var err error
		if version, err = strconv.ParseUint(v, 10, 64); err != nil {
			s.fail(w, badRequest("invalid %s %q", client.VersionHeader, v))
			return
		}
	} else {
		version = s.stamp()
	}
	// An image is also capped at what the store can hold, on every node
	// for the reason names are.
	limit := min(s.cfg.MaxBodyBytes, store.MaxObjectBytes)
	if r.ContentLength > limit {
		s.fail(w, &httpError{
			status: http.StatusRequestEntityTooLarge,
			msg:    fmt.Sprintf("request body exceeds %d bytes", limit),
		})
		return
	}
	// The body buffer is fresh, never pooled: the index keeps it as the
	// image's bytes. A declared length sizes it exactly, so the index
	// holds no read-ahead capacity.
	var wire []byte
	var err error
	if r.ContentLength >= 0 {
		wire, err = core.ReadDeclared(r.Body, r.ContentLength)
	} else {
		wire, err = io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, &httpError{
				status: http.StatusRequestEntityTooLarge,
				msg:    fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			})
			return
		}
		s.fail(w, badRequest("reading request body: %v", err))
		return
	}
	si, err := receivedImage(wire)
	if err != nil {
		s.fail(w, badRequest("image %q: invalid wire bytes: %v", name, err))
		return
	}
	si.version = version
	s.storeImage(name, si)
	w.WriteHeader(http.StatusNoContent)
}

// handleCluster reports the ring view: every member with its gossip
// state and key-space share, plus this node's forwarding counters.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	members, repl, vnodes := s.cluster.View()
	st := s.cluster.Counters()
	resp := client.ClusterResponse{
		Self:        s.cluster.Self(),
		Replication: repl,
		VNodes:      vnodes,
		Peers:       make([]client.PeerStatus, len(members)),
		Forwarded:   st.Forwarded,
		PeerFills:   st.PeerFills,
		PeerErrors:  st.PeerErrors,
	}
	for i, m := range members {
		resp.Peers[i] = client.PeerStatus{
			URL:         m.URL,
			Self:        m.Self,
			Alive:       m.Alive,
			State:       m.State,
			Incarnation: m.Incarnation,
			Share:       m.Share,
			LastError:   m.LastErr,
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// bindCompiled binds a named compile at a freshly stamped version and
// pushes it to the name's replica set. The publish is best-effort by
// design: the image is already durable locally, the GET path's
// successor fallback covers an unreachable owner and repair brings a
// missed replica up to date, so a failed publish costs a peer_errors
// tick, never a failed compile. Synchronous on the request path: when
// the response returns, the owner can serve the image — the invariant
// the cluster tests pin. A compile that a concurrent one of the same
// name outdated before it was indexed is not published.
func (s *Server) bindCompiled(ctx context.Context, name string, si *storedImage) {
	si.version = s.stamp()
	if !s.storeImage(name, si) || s.cluster == nil {
		return
	}
	wire, err := si.bytes()
	if err != nil {
		// Not representable on the wire (non-int-DCT-W codec): nothing
		// the peers could serve either.
		return
	}
	s.cluster.PublishImage(ctx, name, si.version, wire)
}

// entrySummary condenses one compiled entry for the wire.
func entrySummary(svc *compaqt.Service, e *compaqt.Entry) client.EntrySummary {
	c := e.Compressed
	return client.EntrySummary{
		Key:           e.Key,
		Gate:          e.Gate,
		Qubit:         e.Qubit,
		Target:        e.Target,
		Samples:       c.Samples,
		WindowSize:    c.WindowSize,
		OriginalWords: c.OriginalWords(),
		PackedWords:   c.Words(codec.LayoutPacked),
		UniformWords:  c.Words(codec.LayoutUniform),
		PackedRatio:   ratioOr(c.OriginalWords(), c.Words(codec.LayoutPacked)),
	}
}

// ratioOr guards division by zero in the compression ratio. packed ==
// 0 means the entry was fully repeat-eliminated — the best possible
// outcome, not the worst — so it reports the original word count (the
// ratio's supremum: orig words became fewer than one) rather than 0,
// which read as "worse than uncompressed" in stats.
func ratioOr(orig, packed int) float64 {
	if packed == 0 {
		return float64(orig)
	}
	return float64(orig) / float64(packed)
}

func imageStats(img *compaqt.Image) client.ImageStats {
	st := img.Stats()
	return client.ImageStats{
		Entries:       st.Entries,
		OriginalWords: st.OriginalWords,
		PackedWords:   st.PackedWords,
		UniformWords:  st.UniformWords,
		PackedRatio:   st.PackedRatio,
		UniformRatio:  st.UniformRatio,
		WorstWindow:   st.WorstWindow,
		RepeatSamples: st.RepeatSamples,
	}
}
