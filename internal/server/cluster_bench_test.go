// Cluster serving benchmarks: the forwarded GET versus the local
// serve, both measured over real HTTP so the comparison is two hops
// against one (CI fails a change whose forwarded/local ratio exceeds
// its merge base's by more than 20%).
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"compaqt/client"
	"compaqt/internal/cluster"
)

// benchCluster is a two-node cluster: a storeless front node whose
// index holds one image, and a back node holding two compiled images
// whose names hash onto the back node's shard. GETs through the front
// that alternate between the two names miss its index every time (each
// fill evicts the other name), so every one forwards, validates and
// fills.
type benchCluster struct {
	front, back       *Server
	frontURL, backURL string
	names             [2]string
}

func newBenchCluster(b *testing.B) *benchCluster {
	b.Helper()
	listeners := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	servers := make([]*Server, 2)
	for i := range servers {
		cfg := Config{
			Parallelism:    1,
			RepairInterval: -1,
			Cluster: cluster.Config{
				Self:           urls[i],
				Peers:          urls,
				GossipInterval: -1,
			},
		}
		if i == 0 {
			cfg.MaxImages = 1
		}
		srv, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		hs := httptest.NewUnstartedServer(srv.Handler())
		hs.Listener.Close()
		hs.Listener = listeners[i]
		hs.Start()
		b.Cleanup(func() {
			hs.Close()
			srv.Close()
		})
		servers[i] = srv
	}
	bc := &benchCluster{front: servers[0], back: servers[1], frontURL: urls[0], backURL: urls[1]}

	// Pick names the back node owns: ownership is ring math over the
	// random test ports, so probe candidates until two land there.
	found := 0
	for i := 0; i < 256 && found < len(bc.names); i++ {
		cand := fmt.Sprintf("bench-%d", i)
		if bc.back.cluster.Owns(cand) && !bc.front.cluster.Owns(cand) {
			bc.names[found] = cand
			found++
		}
	}
	if found < len(bc.names) {
		b.Fatalf("only %d candidate names hashed onto the back node's shard", found)
	}
	pulses := testPulses(8, 96)
	specs := make([]client.PulseSpec, len(pulses))
	for i, p := range pulses {
		specs[i] = client.FromPulse(p)
	}
	for _, name := range bc.names {
		body, err := json.Marshal(client.BatchRequest{Image: name, Pulses: specs})
		if err != nil {
			b.Fatal(err)
		}
		post := newBenchRequester(bc.back.Handler(), http.MethodPost, "/v1/compile/batch", body)
		if w := post.do(); w.status != http.StatusOK {
			b.Fatalf("populate status %d", w.status)
		}
	}
	return bc
}

// urls returns the image URLs of both names on the node at base.
func (bc *benchCluster) urls(base string) []string {
	return []string{base + "/v1/images/" + bc.names[0], base + "/v1/images/" + bc.names[1]}
}

// benchHTTPGet loops b.N GETs over a keep-alive connection, cycling
// through urls, after one warm-up GET. It returns the number of GETs.
func benchHTTPGet(b *testing.B, urls []string) int {
	b.Helper()
	hc := &http.Client{}
	get := func(url string) {
		res, err := hc.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if err != nil || res.StatusCode != http.StatusOK || n == 0 {
			b.Fatalf("GET %s: status %d, %d bytes, %v", url, res.StatusCode, n, err)
		}
	}
	get(urls[0]) // warm the connection and verify the path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(urls[(i+1)%len(urls)])
	}
	return b.N + 1
}

// BenchmarkServerImageGETForwarded measures a cross-shard GET: client
// -> front node over HTTP, index miss, ring lookup, fetch from the
// owning peer over the pooled peer client, validate, fill the index,
// answer. Alternating names on a one-image index keep every iteration
// on this path, which the counters confirm. Gate: <= 2.5x
// BenchmarkServerImageGETLocalHTTP (two hops against one).
func BenchmarkServerImageGETForwarded(b *testing.B) {
	bc := newBenchCluster(b)
	gets := benchHTTPGet(b, bc.urls(bc.frontURL))
	b.StopTimer()
	if st := bc.front.cluster.Counters(); st.Forwarded != uint64(gets) || st.PeerFills != uint64(gets) {
		b.Fatalf("%d GETs made %d forwards and %d fills, want one of each per GET",
			gets, st.Forwarded, st.PeerFills)
	}
}

// BenchmarkServerImageGETLocalHTTP is the forwarded benchmark's
// baseline: the same GETs against the node that owns both images,
// served from its index over one real HTTP hop.
func BenchmarkServerImageGETLocalHTTP(b *testing.B) {
	bc := newBenchCluster(b)
	benchHTTPGet(b, bc.urls(bc.backURL))
}
