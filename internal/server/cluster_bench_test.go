// Cluster serving benchmarks: the forwarded-GET path versus the local
// serve, both measured over real HTTP so the comparison is one network
// hop against two (the benchstat gate holds forwarded to <= 2x local).
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

// benchClusterPair boots a two-node cluster: a front node in pure-proxy
// mode (ClusterNoFill, so every remote GET forwards forever instead of
// filling once) and a back node holding one compiled image whose name
// is chosen to hash onto the back node's shard. Returns the two base
// URLs and the image name.
func benchClusterPair(b *testing.B) (front, back, name string) {
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
		srv, err := New(Config{
			Parallelism:    1,
			RepairInterval: -1,
			Cluster: cluster.Config{
				Self:           urls[i],
				Peers:          urls,
				ProbeInterval:  -1,
				GossipInterval: -1,
				Hedge:          -1,
			},
			ClusterNoFill: i == 0,
		})
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

	// Pick a name the back node owns: ownership is ring math over the
	// random test ports, so probe candidates until one lands there.
	name = ""
	for i := 0; i < 64; i++ {
		cand := fmt.Sprintf("bench-%d", i)
		if servers[1].cluster.Owns(cand) && !servers[0].cluster.Owns(cand) {
			name = cand
			break
		}
	}
	if name == "" {
		b.Fatal("no candidate name hashed onto the back node's shard")
	}
	pulses := testPulses(8, 96)
	specs := make([]client.PulseSpec, len(pulses))
	for i, p := range pulses {
		specs[i] = client.FromPulse(p)
	}
	body, err := json.Marshal(client.BatchRequest{Image: name, Pulses: specs})
	if err != nil {
		b.Fatal(err)
	}
	post := newBenchRequester(servers[1].Handler(), http.MethodPost, "/v1/compile/batch", body)
	if w := post.do(); w.status != http.StatusOK {
		b.Fatalf("populate status %d", w.status)
	}
	return urls[0], urls[1], name
}

// benchHTTPGet loops GET url b.N times over a keep-alive connection.
func benchHTTPGet(b *testing.B, url string) {
	b.Helper()
	hc := &http.Client{}
	get := func() {
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
	get() // warm the connection and verify the path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}

// BenchmarkServerImageGETForwarded measures a cross-shard GET: client
// -> front node over HTTP, ring lookup, forward to the owning peer
// over the pooled peer client, relay the body back. The
// pure-proxy front keeps every iteration on the forwarded path. Gate:
// <= 2x BenchmarkServerImageGETLocalHTTP (one hop vs two).
func BenchmarkServerImageGETForwarded(b *testing.B) {
	front, _, name := benchClusterPair(b)
	benchHTTPGet(b, front+"/v1/images/"+name)
}

// BenchmarkServerImageGETLocalHTTP is the forwarded benchmark's
// baseline: the same GET against the node that owns the image, served
// from local state over one real HTTP hop.
func BenchmarkServerImageGETLocalHTTP(b *testing.B) {
	_, back, name := benchClusterPair(b)
	benchHTTPGet(b, back+"/v1/images/"+name)
}
