package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"compaqt"
	"compaqt/client"
	"compaqt/qctrl"
)

// testWire compiles one small pulse into image wire bytes.
func testWire(t *testing.T) []byte {
	t.Helper()
	return testWireOf(t, testPulse(1, 9, 64))
}

// testWireOf compiles p into image wire bytes.
func testWireOf(t *testing.T, p *qctrl.Pulse) []byte {
	t.Helper()
	svc, err := compaqt.New()
	if err != nil {
		t.Fatal(err)
	}
	img, err := svc.CompilePulses(context.Background(), "wire", []*qctrl.Pulse{p})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := img.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestTrailingBytesNeverServed pins what the index keeps of bytes that
// arrive with something after the image: exactly the image. A peer
// answering a forwarded fill with image + junk, and a PUT of image +
// junk, both serve the image alone — on the first GET as on every
// later one, so one node never serves two bodies for one name.
func TestTrailingBytesNeverServed(t *testing.T) {
	wire := testWire(t)
	withJunk := append(append([]byte(nil), wire...), "JUNK"...)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/v1/images/") {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(withJunk)
	}))
	defer peer.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + ln.Addr().String()
	node := startClusterNode(t, ln, self, []string{self, peer.URL}, 1, 0, nil)
	name := ""
	for i := 0; name == "" && i < 64; i++ {
		if cand := fmt.Sprintf("remote-%d", i); !node.srv.cluster.Owns(cand) {
			name = cand
		}
	}
	if name == "" {
		t.Fatal("no candidate name hashed onto the fake peer's shard")
	}
	ctx := context.Background()
	for i := 1; i <= 2; i++ {
		got, err := node.cl.ImageRaw(ctx, name)
		if err != nil || !bytes.Equal(got, wire) {
			t.Fatalf("GET %d through the filling node: %d bytes (err %v), want the %d-byte image",
				i, len(got), err, len(wire))
		}
	}
	if fills := node.srv.cluster.Counters().PeerFills; fills != 1 {
		t.Fatalf("peer fills = %d, want 1", fills)
	}

	if err := node.cl.PutImageRaw(ctx, "put", withJunk); err != nil {
		t.Fatalf("PUT image + junk: %v", err)
	}
	if got, err := node.cl.ImageRaw(ctx, "put"); err != nil || !bytes.Equal(got, wire) {
		t.Fatalf("GET after PUT of image + junk: %d bytes (err %v), want the %d-byte image",
			len(got), err, len(wire))
	}
}

// TestNamedCompileWithoutWireForm pins the answers for a named compile
// the wire format cannot hold (it stores int-DCT-W only): the compile
// succeeds, GET answers 400 naming the restriction, and neither the
// store nor the digest listing takes the image.
func TestNamedCompileWithoutWireForm(t *testing.T) {
	srv, _, cl := newTestServer(t, Config{StoreDir: t.TempDir()})
	ctx := context.Background()
	if _, err := cl.Compile(ctx, client.CompileRequest{
		Image:   "delta-img",
		Pulse:   client.FromPulse(testPulse(2, 4, 64)),
		Options: &client.CompileOptions{Codec: "delta"},
	}); err != nil {
		t.Fatalf("named delta compile: %v", err)
	}
	_, err := cl.ImageRaw(ctx, "delta-img")
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest ||
		!strings.Contains(apiErr.Message, "int-DCT-W") {
		t.Fatalf("GET delta-img: err = %v, want 400 naming int-DCT-W", err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Store.Puts != 0 {
		t.Fatalf("store puts = %d, want 0", st.Store.Puts)
	}
	if digs := srv.localDigests(); len(digs) != 0 {
		t.Fatalf("digest listing = %+v, want empty", digs)
	}
}
