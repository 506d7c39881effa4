package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"compaqt/client"
	"compaqt/internal/cluster"
	"compaqt/internal/race"
	"compaqt/internal/store"
)

// TestStoreWarmRestart is the persistence contract end to end: images
// compiled by one server process are served byte-identically by the
// next server on the same store directory, without a single recompile.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	pulses := testPulses(6, 96)
	specs := make([]client.PulseSpec, len(pulses))
	for i, p := range pulses {
		specs[i] = client.FromPulse(p)
	}

	srv1, _, cl1 := newTestServer(t, Config{StoreDir: dir})
	if _, err := cl1.CompileBatch(ctx, client.BatchRequest{Image: "cal-42", Pulses: specs}); err != nil {
		t.Fatalf("compile batch: %v", err)
	}
	want, err := cl1.ImageRaw(ctx, "cal-42")
	if err != nil {
		t.Fatalf("first-process image GET: %v", err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatalf("closing first server: %v", err)
	}

	srv2, _, cl2 := newTestServer(t, Config{StoreDir: dir})
	got, err := cl2.ImageRaw(ctx, "cal-42")
	if err != nil {
		t.Fatalf("restarted image GET: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restarted server serves %d bytes differing from the original %d", len(got), len(want))
	}
	if calls := srv2.m.compileCalls.Load(); calls != 0 {
		t.Fatalf("restart triggered %d compiles, want 0 (serve from store)", calls)
	}
	// The served bytes decode into the same image the client would have
	// fetched from the first process.
	img, err := cl2.Image(ctx, "cal-42")
	if err != nil {
		t.Fatalf("decoding restarted image: %v", err)
	}
	if len(img.Entries) != len(pulses) {
		t.Fatalf("restarted image has %d entries, want %d", len(img.Entries), len(pulses))
	}

	st, err := cl2.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Store == nil {
		t.Fatal("stats omit the store block with a store configured")
	}
	if st.Store.Recovered == 0 {
		t.Fatalf("store stats = %+v, want recovered > 0 after warm restart", *st.Store)
	}
	if st.Store.Hits == 0 {
		t.Fatalf("store stats = %+v, want the GET counted as a store hit", *st.Store)
	}
	found := false
	for _, n := range st.Images {
		if n == "cal-42" {
			found = true
		}
	}
	if !found {
		t.Fatalf("stats images %v do not list the recovered image", st.Images)
	}
}

// TestStoreBacksInMemoryEviction covers the other miss path: a name
// evicted from the bounded in-memory image map (not a restart) still
// serves from the store.
func TestStoreBacksInMemoryEviction(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, _, cl := newTestServer(t, Config{StoreDir: dir, MaxImages: 1})

	var want []byte
	for _, name := range []string{"old", "new"} {
		if _, err := cl.CompileBatch(ctx, client.BatchRequest{
			Image:  name,
			Pulses: []client.PulseSpec{client.FromPulse(testPulse(2, 9, 96))},
		}); err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		if name == "old" {
			b, err := cl.ImageRaw(ctx, "old")
			if err != nil {
				t.Fatalf("pre-eviction GET: %v", err)
			}
			want = b
		}
	}
	// MaxImages: 1 evicted "old" from memory when "new" arrived.
	got, err := cl.ImageRaw(ctx, "old")
	if err != nil {
		t.Fatalf("post-eviction GET: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("store-served bytes differ from the in-memory serve")
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Store.Hits == 0 {
		t.Fatalf("store stats = %+v, want the evicted-name GET counted as a hit", *st.Store)
	}
}

// TestStoreWritesOnlyNamedImagesOnce pins storeImage as the store's
// one write path: an unnamed batch or single compile is not persisted
// under its compile name ("batch", the pulse key), and a named compile
// costs one put, not a put and a deduplicated second put.
func TestStoreWritesOnlyNamedImagesOnce(t *testing.T) {
	_, _, cl := newTestServer(t, Config{StoreDir: t.TempDir()})
	ctx := context.Background()
	spec := client.FromPulse(testPulse(2, 5, 64))
	if _, err := cl.CompileBatch(ctx, client.BatchRequest{Pulses: []client.PulseSpec{spec}}); err != nil {
		t.Fatalf("unnamed batch: %v", err)
	}
	if _, err := cl.Compile(ctx, client.CompileRequest{Pulse: spec}); err != nil {
		t.Fatalf("unnamed compile: %v", err)
	}
	for _, name := range []string{"batch", "X_q2"} {
		var apiErr *client.APIError
		if _, err := cl.ImageRaw(ctx, name); !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s after unnamed compiles: err = %v, want 404", name, err)
		}
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Store.Puts != 0 || len(st.Images) != 0 {
		t.Fatalf("unnamed compiles: store puts %d, images %v; want 0 and none", st.Store.Puts, st.Images)
	}

	if _, err := cl.Compile(ctx, client.CompileRequest{Image: "named", Pulse: spec}); err != nil {
		t.Fatalf("named compile: %v", err)
	}
	if st, err = cl.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if st.Store.Puts != 1 || st.Store.PutDedups != 0 {
		t.Fatalf("one named compile: puts %d, put_dedups %d; want 1 and 0", st.Store.Puts, st.Store.PutDedups)
	}
}

// TestHealthReportsStore pins the readiness semantics: a healthy store
// reports "ok", a server without one omits the field entirely, and a
// degraded store is reported without failing the health check.
func TestHealthReportsStore(t *testing.T) {
	getHealth := func(t *testing.T, hs string) (int, client.HealthResponse) {
		t.Helper()
		resp, err := http.Get(hs + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h client.HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	t.Run("no store", func(t *testing.T) {
		_, hs, _ := newTestServer(t, Config{})
		code, h := getHealth(t, hs.URL)
		if code != http.StatusOK || h.Status != "ok" || h.Store != "" {
			t.Fatalf("health = %d %+v, want 200 ok with no store field", code, h)
		}
	})

	t.Run("healthy store", func(t *testing.T) {
		_, hs, _ := newTestServer(t, Config{StoreDir: t.TempDir()})
		code, h := getHealth(t, hs.URL)
		if code != http.StatusOK || h.Status != "ok" || h.Store != "ok" {
			t.Fatalf("health = %d %+v, want 200 ok / store ok", code, h)
		}
	})

	t.Run("degraded store", func(t *testing.T) {
		dir := t.TempDir()
		// A directory squatting on the manifest path defeats every
		// manifest write while leaving reads alone: the store comes up
		// degraded but serving.
		if err := os.Mkdir(filepath.Join(dir, "MANIFEST"), 0o777); err != nil {
			t.Fatal(err)
		}
		_, hs, cl := newTestServer(t, Config{StoreDir: dir})
		code, h := getHealth(t, hs.URL)
		if code != http.StatusOK {
			t.Fatalf("degraded store flipped health to %d, want 200 (degraded is not down)", code)
		}
		if h.Status != "ok" || !strings.HasPrefix(h.Store, "degraded: ") {
			t.Fatalf("health = %+v, want status ok with store degraded", h)
		}
		// Compiles still work; only persistence is impaired.
		if _, err := cl.Compile(context.Background(), client.CompileRequest{
			Pulse: client.FromPulse(testPulse(0, 3, 64)),
		}); err != nil {
			t.Fatalf("compile on degraded store: %v", err)
		}
	})
}

// TestStoreGETZeroCopyAllocs guards the warm store-serving path's
// allocation budget: a GET answered from the mmap'd store must stay
// within the in-memory image GET's budget (ISSUE: <= 4 allocs/op).
func TestStoreGETZeroCopyAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc counts are unstable under -race (sync.Pool bypasses)")
	}
	dir := t.TempDir()
	srv1 := mustServer(t, Config{StoreDir: dir})
	body, err := json.Marshal(client.BatchRequest{
		Image:  "warm",
		Pulses: []client.PulseSpec{client.FromPulse(testPulse(1, 5, 96))},
	})
	if err != nil {
		t.Fatal(err)
	}
	post := newBenchRequester(srv1.Handler(), http.MethodPost, "/v1/compile/batch", body)
	if w := post.do(); w.status != http.StatusOK {
		t.Fatalf("compile status %d", w.status)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := mustServer(t, Config{StoreDir: dir})
	br := newBenchRequester(srv2.Handler(), http.MethodGet, "/v1/images/warm", nil)
	if w := br.do(); w.status != http.StatusOK {
		t.Fatalf("warmup status %d", w.status)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if w := br.do(); w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	})
	if allocs > 4 {
		t.Fatalf("store image GET allocates %.1f/op, want <= 4", allocs)
	}
}

func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestImageNameLimit: a name longer than the store can bind is refused
// with 400 on every route that binds a name, since an image the store
// refused would be served until a restart and then be gone; the
// longest name it can bind survives a restart.
func TestImageNameLimit(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	pulses := testPulses(2, 96)
	specs := []client.PulseSpec{client.FromPulse(pulses[0]), client.FromPulse(pulses[1])}

	srv1, _, cl1 := newTestServer(t, Config{StoreDir: dir})
	if _, err := cl1.CompileBatch(ctx, client.BatchRequest{Image: "src", Pulses: specs}); err != nil {
		t.Fatal(err)
	}
	wire, err := cl1.ImageRaw(ctx, "src")
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("n", store.MaxNameLen+1)
	for route, call := range map[string]func() error{
		"POST /v1/compile": func() error {
			_, err := cl1.Compile(ctx, client.CompileRequest{Image: long, Pulse: specs[0]})
			return err
		},
		"POST /v1/compile/batch": func() error {
			_, err := cl1.CompileBatch(ctx, client.BatchRequest{Image: long, Pulses: specs})
			return err
		},
		"PUT /v1/images/{name}": func() error { return cl1.PutImageRaw(ctx, long, wire) },
	} {
		var apiErr *client.APIError
		if err := call(); !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with a %d-byte name: %v, want 400", route, len(long), err)
		}
	}

	longest := strings.Repeat("m", store.MaxNameLen)
	if _, err := cl1.CompileBatch(ctx, client.BatchRequest{Image: longest, Pulses: specs}); err != nil {
		t.Fatalf("compile under a %d-byte name: %v", len(longest), err)
	}
	want, err := cl1.ImageRaw(ctx, longest)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, cl2 := newTestServer(t, Config{StoreDir: dir})
	got, err := cl2.ImageRaw(ctx, longest)
	if err != nil {
		t.Fatalf("GET of the %d-byte name after a restart: %v", len(longest), err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the image bound to the longest name changed across the restart")
	}
}

// TestImagePutObjectLimit: with -max-body above the store's object cap,
// a PUT larger than the cap is refused with 413 before its body is
// read, as one over -max-body is.
func TestImagePutObjectLimit(t *testing.T) {
	srv := mustServer(t, Config{MaxBodyBytes: 2 * store.MaxObjectBytes})
	r := httptest.NewRequest(http.MethodPut, "/v1/images/big", strings.NewReader("x"))
	r.ContentLength = store.MaxObjectBytes + 1
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("PUT of %d bytes: status %d, want 413", r.ContentLength, w.Code)
	}
}

// TestImagePutCommitsMemoryAsBytesArrive: a PUT that declares a body
// just under -max-body and sends one byte costs a bounded first chunk,
// not the declared length, and is refused with 400.
func TestImagePutCommitsMemoryAsBytesArrive(t *testing.T) {
	srv := mustServer(t, Config{})
	h := srv.Handler()
	r := httptest.NewRequest(http.MethodPut, "/v1/images/short", strings.NewReader("x"))
	r.ContentLength = 64<<20 - 1
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(w, r)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("PUT declaring %d bytes and sending 1: status %d, want 400", r.ContentLength, w.Code)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("PUT declaring %d bytes and sending 1 allocated %d bytes, want under 1 MiB", r.ContentLength, got)
	}
}

// TestStoreImageConcurrentWritesAgree: concurrent peer PUTs of one name
// at different versions leave the index and the store on the same
// binding, the newest, whatever order they land in.
func TestStoreImageConcurrentWritesAgree(t *testing.T) {
	srv := mustServer(t, Config{Parallelism: 1, StoreDir: t.TempDir()})
	wires := [2][]byte{testWire(t), testWireOf(t, testPulse(2, 5, 64))}
	const writers, each = 8, 8
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				v := g*each + k + 1
				req := httptest.NewRequest(http.MethodPut, "/v1/images/lib", bytes.NewReader(wires[v%2]))
				req.Header.Set(client.VersionHeader, strconv.Itoa(v))
				w := httptest.NewRecorder()
				srv.Handler().ServeHTTP(w, req)
				if w.Code != http.StatusNoContent {
					t.Errorf("PUT at version %d: status %d", v, w.Code)
				}
			}
		}(g)
	}
	wg.Wait()
	const newest = writers * each
	req := httptest.NewRequest(http.MethodGet, "/v1/images/lib", nil)
	req.Header.Set(cluster.ForwardedHeader, "1")
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	if !bytes.Equal(w.Body.Bytes(), wires[newest%2]) || w.Header().Get(client.VersionHeader) != strconv.Itoa(newest) {
		t.Fatalf("index serves version %s, want the newest, %d, and its bytes", w.Header().Get(client.VersionHeader), newest)
	}
	b, ok := srv.store.Lookup("lib")
	if !ok || b.Version != newest || b.Key != store.DigestWire(wires[newest%2]) {
		t.Fatalf("store binds %+v, want the newest binding, version %d", b, newest)
	}
}

// TestImagePutVersionHeader: a PUT's X-Compaqt-Version is the version
// to bind at, checked like any input; a PUT without one is a new write
// the node stamps above every version it holds, and a stale one is
// answered 204 and changes nothing.
func TestImagePutVersionHeader(t *testing.T) {
	srv := mustServer(t, Config{Parallelism: 1})
	a, b := testWire(t), testWireOf(t, testPulse(2, 5, 64))
	put := func(wire []byte, version string) int {
		req := httptest.NewRequest(http.MethodPut, "/v1/images/lib", bytes.NewReader(wire))
		if version != "" {
			req.Header.Set(client.VersionHeader, version)
		}
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, req)
		return w.Code
	}
	for _, bad := range []string{"abc", "-1", "18446744073709551616"} {
		if code := put(a, bad); code != http.StatusBadRequest {
			t.Fatalf("PUT with version %q answered %d, want 400", bad, code)
		}
	}
	if code := put(a, "5"); code != http.StatusNoContent {
		t.Fatalf("versioned PUT answered %d", code)
	}
	if code := put(b, ""); code != http.StatusNoContent {
		t.Fatalf("unversioned PUT answered %d", code)
	}
	stamped, _ := srv.image("lib")
	if stamped.version <= 5 || !bytes.Equal(stamped.wire, b) {
		t.Fatalf("unversioned PUT bound version %d, want a stamp above 5", stamped.version)
	}
	if code := put(a, strconv.FormatUint(stamped.version-1, 10)); code != http.StatusNoContent {
		t.Fatalf("stale PUT answered %d, want 204", code)
	}
	if si, _ := srv.image("lib"); si != stamped {
		t.Fatal("a stale PUT replaced a newer binding")
	}
}
