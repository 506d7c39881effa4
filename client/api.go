// Package client is the typed Go client for the compaqt compile
// server (cmd/compaqt-serve, internal/server). It also defines the
// JSON wire types of the HTTP API, and the one-pass codec of the two
// request bodies that carry pulses (DecodeCompileRequest,
// DecodeBatchRequest), which the server package reuses so the two
// sides cannot drift.
//
// The API surface mirrors the in-process compaqt.Service:
//
//	POST /v1/compile         one pulse  -> entry summary
//	POST /v1/compile/batch   pulse list -> order-stable, dedup-aware batch
//	GET  /v1/images/{name}   serialized CPQT image (wire format)
//	PUT  /v1/images/{name}   publish wire bytes (cluster replication)
//	GET  /v1/stats           cache + request metrics (?scope=cluster aggregates peers)
//	GET  /v1/cluster         consistent-hash ring view + member health
//	POST /v1/cluster/gossip  membership push-pull exchange
//	GET  /v1/cluster/digests owned-image digest listing (anti-entropy)
//	GET  /healthz            liveness / drain state
package client

import (
	"fmt"
	"net/http"
	"time"

	"compaqt/qctrl"
	"compaqt/waveform"
)

// PulseSpec is the wire form of one calibrated pulse: the complex
// baseband envelope as two float64 channels in unit-amplitude terms,
// exactly what qctrl.Pulse carries in process. Target must be -1 for
// single-qubit gates (note: an omitted JSON target decodes as 0, which
// means "two-qubit partner q0" — clients must send -1 explicitly or
// build specs with FromPulse).
type PulseSpec struct {
	Gate       string    `json:"gate"`
	Qubit      int       `json:"qubit"`
	Target     int       `json:"target"`
	SampleRate float64   `json:"sample_rate"`
	I          []float64 `json:"i"`
	Q          []float64 `json:"q"`
}

// FromPulse converts an in-process pulse to its wire form.
func FromPulse(p *qctrl.Pulse) PulseSpec {
	return PulseSpec{
		Gate:       p.Gate,
		Qubit:      p.Qubit,
		Target:     p.Target,
		SampleRate: p.Waveform.SampleRate,
		I:          p.Waveform.I,
		Q:          p.Waveform.Q,
	}
}

// Pulse validates the spec and converts it back to an in-process
// pulse. The waveform name is the pulse key ("X_q0", "CX_q1_q2"), the
// same convention the machine libraries use.
func (ps PulseSpec) Pulse() (*qctrl.Pulse, error) {
	p := &qctrl.Pulse{}
	if err := ps.PulseInto(p, &waveform.Waveform{}); err != nil {
		return nil, err
	}
	return p, nil
}

// PulseInto is Pulse with caller-provided storage: it validates the
// spec and fills p and w (wiring p.Waveform to w) without allocating.
// The serving hot path reuses pooled pulse values across requests; the
// envelope slices are shared with the spec, not copied.
func (ps PulseSpec) PulseInto(p *qctrl.Pulse, w *waveform.Waveform) error {
	if ps.Gate == "" {
		return fmt.Errorf("client: pulse has no gate name")
	}
	if ps.Qubit < 0 {
		return fmt.Errorf("client: negative qubit %d", ps.Qubit)
	}
	if ps.Target < -1 {
		return fmt.Errorf("client: invalid target %d (want -1 or a qubit index)", ps.Target)
	}
	if ps.SampleRate <= 0 {
		return fmt.Errorf("client: sample rate %g must be positive", ps.SampleRate)
	}
	*w = waveform.Waveform{
		SampleRate: ps.SampleRate,
		I:          ps.I,
		Q:          ps.Q,
	}
	*p = qctrl.Pulse{Gate: ps.Gate, Qubit: ps.Qubit, Target: ps.Target, Waveform: w}
	w.Name = p.Key()
	return w.Validate()
}

// CompileOptions are per-request overrides of the server's default
// compile configuration. The zero value (or a nil pointer) means "use
// the server defaults", and unset fields overlay onto them:
//
//   - Window, Adaptive and the fidelity knobs inherit the server's
//     values while the codec is unchanged. Overriding the codec drops
//     that inheritance (a window or MSE target tuned for the default
//     codec rarely transfers) — only explicitly-set fields then apply
//     on top of the new codec's own defaults.
//   - Threshold, FidelityTarget and MSETarget are one exclusive group:
//     setting any of them replaces the server's fidelity configuration
//     wholesale.
//
// Overridden requests bypass the server's compile cache (the cache is
// keyed to the default configuration); in-batch dedup still applies.
type CompileOptions struct {
	// Codec selects a registered codec by name (see codec.Names).
	Codec string `json:"codec,omitempty"`
	// Window is the transform window for windowed codecs (4/8/16/32).
	Window int `json:"window,omitempty"`
	// Threshold fixes the relative coefficient threshold in [0, 1).
	Threshold float64 `json:"threshold,omitempty"`
	// FidelityTarget enables Algorithm-1 tuning toward 1-MSE >= target.
	FidelityTarget float64 `json:"fidelity_target,omitempty"`
	// MSETarget enables Algorithm-1 tuning with an explicit MSE budget.
	MSETarget float64 `json:"mse_target,omitempty"`
	// Adaptive toggles the flat-top repeat path; nil inherits the
	// server default.
	Adaptive *bool `json:"adaptive,omitempty"`
}

// IsZero reports whether the options request no overrides.
func (o *CompileOptions) IsZero() bool {
	return o == nil || *o == CompileOptions{}
}

// CompileRequest is the body of POST /v1/compile.
type CompileRequest struct {
	// Image, when set, stores the compiled single-entry image on the
	// server under this name for GET /v1/images/{name}.
	Image   string          `json:"image,omitempty"`
	Pulse   PulseSpec       `json:"pulse"`
	Options *CompileOptions `json:"options,omitempty"`
}

// CompileResponse is the body of a successful POST /v1/compile.
type CompileResponse struct {
	Codec string       `json:"codec"`
	Entry EntrySummary `json:"entry"`
}

// BatchRequest is the body of POST /v1/compile/batch.
type BatchRequest struct {
	// Image, when set, stores the compiled image under this name.
	Image   string          `json:"image,omitempty"`
	Pulses  []PulseSpec     `json:"pulses"`
	Options *CompileOptions `json:"options,omitempty"`
	// IncludeImage asks for the serialized image (wire format, base64)
	// in the response. Requires a codec the wire format stores
	// (intdct-w).
	IncludeImage bool `json:"include_image,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/compile/batch.
// Entries align one-to-one with the request pulses, in order.
type BatchResponse struct {
	Codec   string         `json:"codec"`
	Entries []EntrySummary `json:"entries"`
	Stats   ImageStats     `json:"stats"`
	// ImageB64 is the std-base64 serialized image when IncludeImage
	// was set; its bytes are identical to an in-process
	// Service.CompileBatch + Image.WriteTo of the same pulses.
	ImageB64 string `json:"image_b64,omitempty"`
}

// EntrySummary describes one compiled entry.
type EntrySummary struct {
	Key           string  `json:"key"`
	Gate          string  `json:"gate"`
	Qubit         int     `json:"qubit"`
	Target        int     `json:"target"`
	Samples       int     `json:"samples"`
	WindowSize    int     `json:"window_size,omitempty"`
	OriginalWords int     `json:"original_words"`
	PackedWords   int     `json:"packed_words"`
	UniformWords  int     `json:"uniform_words"`
	PackedRatio   float64 `json:"packed_ratio"`
}

// ImageStats mirrors compaqt.Stats on the wire.
type ImageStats struct {
	Entries       int     `json:"entries"`
	OriginalWords int     `json:"original_words"`
	PackedWords   int     `json:"packed_words"`
	UniformWords  int     `json:"uniform_words"`
	PackedRatio   float64 `json:"packed_ratio"`
	UniformRatio  float64 `json:"uniform_ratio"`
	WorstWindow   int     `json:"worst_window"`
	RepeatSamples int     `json:"repeat_samples"`
}

// RequestStats are the server's HTTP-level counters.
type RequestStats struct {
	Total        uint64 `json:"total"`
	ClientErrors uint64 `json:"client_errors"`
	ServerErrors uint64 `json:"server_errors"`
	Canceled     uint64 `json:"canceled"`
	// Shed counts requests turned away with 429 because they waited the
	// full admission deadline for a compile slot (overload shedding).
	Shed uint64 `json:"shed"`
	// WriteErrors counts response encode/write failures — responses the
	// server built but could not deliver (the client usually hung up).
	WriteErrors  uint64 `json:"write_errors"`
	InFlight     int64  `json:"in_flight"`
	PeakInFlight int64  `json:"peak_in_flight"`
}

// CompileStats aggregate the compile instrumentation events of every
// service the server runs (default and per-override).
type CompileStats struct {
	Calls     uint64 `json:"calls"`
	Errors    uint64 `json:"errors"`
	Pulses    uint64 `json:"pulses"`
	Encodes   uint64 `json:"encodes"`
	CacheHits uint64 `json:"cache_hits"`
}

// CacheStats is the wire form of the default service's compile cache.
type CacheStats struct {
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	Evictions  uint64  `json:"evictions"`
	Entries    int     `json:"entries"`
	BytesSaved uint64  `json:"bytes_saved"`
	HitRate    float64 `json:"hit_rate"`
}

// StoreStats is the wire form of the server's persistent image store
// (absent from /v1/stats when the server runs without one).
type StoreStats struct {
	// Objects/Names/Bytes describe the resident content: distinct
	// stored blobs, the image names bound to them, and their on-disk
	// footprint against MaxBytes.
	Objects  int   `json:"objects"`
	Names    int   `json:"names"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
	// Hits/Misses count store reads; Puts/PutDedups compile
	// write-throughs (performed vs digest-deduplicated).
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	PutDedups uint64 `json:"put_dedups"`
	// Evictions/EvictedBytes account the size-bounded LRU GC.
	Evictions    uint64 `json:"evictions"`
	EvictedBytes uint64 `json:"evicted_bytes"`
	// MmapServes/CopyServes split hits by read path.
	MmapServes uint64 `json:"mmap_serves"`
	CopyServes uint64 `json:"copy_serves"`
	// RecoveredWrites counts degraded -> healthy transitions (a failing
	// disk that healed without a restart); Probes the degraded-mode
	// re-probe attempts behind them.
	RecoveredWrites uint64 `json:"recovered_writes"`
	Probes          uint64 `json:"probes"`
	// Recovered counts warm-restart bindings the startup scan restored;
	// OrphansCleaned the crash debris it swept.
	Recovered      int `json:"recovered"`
	OrphansCleaned int `json:"orphans_cleaned"`
}

// ClusterStats is the cluster-tier block of /v1/stats (absent when the
// server runs without peers). The counters are one internally
// consistent snapshot — every field is captured under the same lock at
// the same instant, so cross-field arithmetic (fills per forward, say)
// is exact for that snapshot.
type ClusterStats struct {
	// Self is this node's advertised member URL.
	Self string `json:"self"`
	// Replication is the publish fan-out: owner plus ring successors.
	Replication int `json:"replication"`
	// Members is the known member count (any state); Live the subset
	// currently believed alive, self included.
	Members int `json:"members"`
	Live    int `json:"live"`
	// Forwarded counts image GETs this node answered from a peer;
	// PeerFills the remote fetches written through to the local store;
	// PeerErrors the failed fetches, publishes and digest listings and
	// the peer answers that were not a valid image (failed gossip
	// exchanges are liveness checks and are not counted).
	Forwarded  uint64 `json:"forwarded"`
	PeerFills  uint64 `json:"peer_fills"`
	PeerErrors uint64 `json:"peer_errors"`
	// Repairs counts images pulled by the anti-entropy repair loop.
	Repairs uint64 `json:"repairs"`
	// GossipRounds counts initiated membership exchanges; Refutations
	// the self-incarnation bumps made to refute suspect claims about
	// this node.
	GossipRounds uint64 `json:"gossip_rounds"`
	Refutations  uint64 `json:"refutations"`
}

// PeerStatus is one member row of the GET /v1/cluster ring view.
type PeerStatus struct {
	URL string `json:"url"`
	// Self marks the answering node's own row.
	Self bool `json:"self,omitempty"`
	// Alive is the node's current liveness verdict: a failed gossip
	// exchange or a transport failure marks a peer down, a successful
	// exchange (or its refutation, gossiped) heals it.
	Alive bool `json:"alive"`
	// State is the gossip membership state: "alive" or "suspect". A
	// member that stays unreachable stays "suspect". Incarnation is
	// the member's gossip version: it starts at the member's start
	// time in Unix nanoseconds, and only the member itself bumps it,
	// to refute suspicion.
	State       string `json:"state,omitempty"`
	Incarnation uint64 `json:"incarnation,omitempty"`
	// Share is the fraction of the digest space the member's virtual
	// nodes own (≈ 1/members when balanced).
	Share float64 `json:"share"`
	// LastError is the most recent failed gossip exchange or peer call,
	// empty for a healthy peer.
	LastError string `json:"last_error,omitempty"`
}

// ClusterResponse is the body of GET /v1/cluster: the consistent-hash
// ring as this node sees it.
type ClusterResponse struct {
	Self        string       `json:"self"`
	Replication int          `json:"replication"`
	VNodes      int          `json:"vnodes"`
	Peers       []PeerStatus `json:"peers"`
	Forwarded   uint64       `json:"forwarded"`
	PeerFills   uint64       `json:"peer_fills"`
	PeerErrors  uint64       `json:"peer_errors"`
}

// GossipMember is one row of the membership table two nodes exchange:
// identity, gossip incarnation, and liveness state ("alive" or
// "suspect"; any other value, such as an older node's "dead", reads as
// "suspect"). A higher incarnation always supersedes a lower one; at
// equal incarnation the more severe state wins.
type GossipMember struct {
	URL         string `json:"url"`
	Incarnation uint64 `json:"incarnation"`
	State       string `json:"state"`
}

// GossipRequest is the body of POST /v1/cluster/gossip: the sender's
// identity and its full member table (push half of push-pull).
type GossipRequest struct {
	From    string         `json:"from"`
	Members []GossipMember `json:"members"`
}

// GossipResponse is the answer: the receiver's merged table (pull
// half), so one exchange converges both sides.
type GossipResponse struct {
	From    string         `json:"from"`
	Members []GossipMember `json:"members"`
}

// ImageDigest is one row of GET /v1/cluster/digests: an image this
// node holds (in memory or in its store), with the content digest and
// wire size a repairing peer validates against, and the version of the
// name's binding, by which the repairing peer decides whether it is
// newer than its own.
type ImageDigest struct {
	Name    string `json:"name"`
	Digest  string `json:"digest"`
	Size    int64  `json:"size"`
	Version uint64 `json:"version"`
}

// DigestsResponse is the body of GET /v1/cluster/digests.
type DigestsResponse struct {
	Self   string        `json:"self"`
	Images []ImageDigest `json:"images"`
}

// PeerStats is one node's slot in the cluster-wide stats aggregate:
// either its stats or the error that kept them out — a dead peer costs
// one error slot, never the whole response.
type PeerStats struct {
	URL   string         `json:"url"`
	Self  bool           `json:"self,omitempty"`
	Stats *StatsResponse `json:"stats,omitempty"`
	Error string         `json:"error,omitempty"`
}

// ClusterTotals sums the headline counters across every peer that
// answered the scope=cluster fan-out.
type ClusterTotals struct {
	// Nodes counts peers that answered; Errors those that did not.
	Nodes  int `json:"nodes"`
	Errors int `json:"errors"`
	// Requests/CompileCalls/CacheHits aggregate the serving counters.
	Requests     uint64 `json:"requests"`
	CompileCalls uint64 `json:"compile_calls"`
	CacheHits    uint64 `json:"cache_hits"`
	// Images counts stored image names; StoreBytes their on-disk sum.
	Images     int   `json:"images"`
	StoreBytes int64 `json:"store_bytes"`
	// Forwarded/PeerFills/PeerErrors aggregate the cluster counters.
	Forwarded  uint64 `json:"forwarded"`
	PeerFills  uint64 `json:"peer_fills"`
	PeerErrors uint64 `json:"peer_errors"`
}

// ClusterStatsResponse is the body of GET /v1/stats?scope=cluster: the
// answering node fans the stats call out to every live member and
// aggregates, with per-peer error slots.
type ClusterStatsResponse struct {
	Self   string        `json:"self"`
	Peers  []PeerStats   `json:"peers"`
	Totals ClusterTotals `json:"totals"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Codec    string       `json:"codec"`
	Codecs   []string     `json:"codecs"`
	Requests RequestStats `json:"requests"`
	Compile  CompileStats `json:"compile"`
	Cache    CacheStats   `json:"cache"`
	// Store reports the persistent image store; nil when disabled.
	Store *StoreStats `json:"store,omitempty"`
	// Cluster reports the digest-sharded serving tier; nil when the
	// server runs standalone.
	Cluster *ClusterStats `json:"cluster,omitempty"`
	Images  []string      `json:"images"`
}

// HealthResponse is the body of GET /healthz ("ok" or "draining").
type HealthResponse struct {
	Status string `json:"status"`
	// Store reports persistent-store readiness when one is configured:
	// "ok", or "degraded: <cause>" while persistence is failing. By
	// default the server keeps serving — degraded is not down, so the
	// status stays 200 "ok". With ?strict=1 a degraded store turns the
	// response into a 503 "degraded" — the hard signal load balancers
	// need to rotate a node with a misbehaving disk out.
	Store string `json:"store,omitempty"`
}

// ErrorResponse is the body of every non-2xx JSON response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// APIError is a non-2xx server response surfaced as a Go error: the
// status code, the parsed error message, the raw (bounded) response
// body, and the server's Retry-After hint when one was sent (429
// overload and 503 drain responses carry it).
type APIError struct {
	StatusCode int
	Message    string
	// Body is the raw error response body (bounded at 4 KiB), for
	// callers that need more than the parsed message.
	Body string
	// RetryAfter is the server-supplied backoff hint; 0 when absent.
	// The client's retry layer floors its jittered backoff at this.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.StatusCode, e.Message)
}

// Temporary reports whether the response is worth retrying: the server
// was overloaded (429) or transiently failing (5xx), as opposed to
// rejecting the request itself (4xx).
func (e *APIError) Temporary() bool {
	switch e.StatusCode {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}
