// Hint-log unit tests: durable round-trips, the torn-tail crash case,
// latest-wins replacement (also across a delivery in flight), the byte
// budget, and the memory-only mode, including the switch to it when the
// file cannot be written.
package cluster

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestHintLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hints.log")
	l := openHintLog(path, 0)
	l.add("http://a:1", "img-1", []byte("wire-1"))
	l.add("http://b:2", "img-2", []byte("wire-2"))
	l.add("http://a:1", "img-3", []byte("wire-3"))

	// A fresh open (the restart case) replays all three, in order.
	l2 := openHintLog(path, 0)
	if n, b := l2.pending(); n != 3 || b != int64(3*len("wire-1")) {
		t.Fatalf("reopened log has %d hints / %d bytes, want 3 / %d", n, b, 3*len("wire-1"))
	}
	hs := l2.take("http://a:1")
	if len(hs) != 2 || hs[0].name != "img-1" || string(hs[0].wire) != "wire-1" ||
		hs[1].name != "img-3" || string(hs[1].wire) != "wire-3" {
		t.Fatalf("take(a) = %+v, want img-1 and img-3 in append order", hs)
	}

	// remove persists too.
	l2.remove(hs[0])
	l3 := openHintLog(path, 0)
	if n, _ := l3.pending(); n != 2 {
		t.Fatalf("log after remove reopens with %d hints, want 2", n)
	}
}

func TestHintLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hints.log")
	l := openHintLog(path, 0)
	l.add("http://a:1", "whole", []byte("kept"))
	l.add("http://a:1", "torn", []byte("lost-in-the-crash"))

	// Chop mid-way through the second record: the crash-during-append
	// shape. The scan must keep the first record and drop the tail
	// without erroring.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openHintLog(path, 0)
	if n, _ := l2.pending(); n != 1 {
		t.Fatalf("torn log reopened with %d hints, want 1", n)
	}
	if hs := l2.take("http://a:1"); len(hs) != 1 || hs[0].name != "whole" {
		t.Fatalf("torn log kept %+v, want just the whole record", hs)
	}

	// Corrupt the kept record's payload in place: the CRC must reject it.
	b, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	l3 := openHintLog(path, 0)
	if n, _ := l3.pending(); n != 0 {
		t.Fatalf("CRC-corrupt log reopened with %d hints, want 0", n)
	}
}

func TestHintLogLatestWins(t *testing.T) {
	l := openHintLog("", 0)
	l.add("http://a:1", "img", []byte("old"))
	l.add("http://a:1", "img", []byte("newer"))
	hs := l.take("http://a:1")
	if len(hs) != 1 || string(hs[0].wire) != "newer" {
		t.Fatalf("take = %+v, want one hint with the newest wire bytes", hs)
	}
	if n, b := l.pending(); n != 1 || b != int64(len("newer")) {
		t.Fatalf("pending = %d hints / %d bytes, want 1 / %d", n, b, len("newer"))
	}
}

func TestHintLogEvictsOldestPastBudget(t *testing.T) {
	l := openHintLog("", 10) // room for two 4-byte wires, not three
	if d := l.add("http://a:1", "one", []byte("aaaa")); d != 0 {
		t.Fatalf("first add dropped %d", d)
	}
	l.add("http://a:1", "two", []byte("bbbb"))
	if d := l.add("http://a:1", "three", []byte("cccc")); d != 1 {
		t.Fatalf("overflow add dropped %d hints, want 1 (the oldest)", d)
	}
	if hs := l.take("http://a:1"); len(hs) != 2 || hs[0].name != "two" || hs[1].name != "three" {
		t.Fatalf("after eviction take = %+v, want two and three", hs)
	}
	if l.dropped != 1 {
		t.Fatalf("dropped counter = %d, want 1", l.dropped)
	}
}

func TestHintLogGarbageFileDegradesGracefully(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hints.log")
	if err := os.WriteFile(path, []byte("not a hint log at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := openHintLog(path, 0)
	if n, _ := l.pending(); n != 0 {
		t.Fatalf("garbage file yielded %d hints, want 0", n)
	}
	// Still usable: the bad bytes were compacted away on open.
	l.add("http://a:1", "img", []byte("wire"))
	l2 := openHintLog(path, 0)
	if n, _ := l2.pending(); n != 1 {
		t.Fatalf("log after garbage recovery reopened with %d hints, want 1", n)
	}
}

// TestHintDeliveryKeepsNewerHint replaces a hint while its older
// version is being delivered: the delivery must remove only what it
// sent, so the newer bytes stay queued and are delivered next.
func TestHintDeliveryKeepsNewerHint(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var mu sync.Mutex
	var puts []string
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/images/{name}", func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		puts = append(puts, string(b))
		mu.Unlock()
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		w.WriteHeader(http.StatusNoContent)
	})
	p := &fakePeer{hs: httptest.NewServer(mux)}
	t.Cleanup(p.hs.Close)
	c := newTestCluster(t, p)
	ctx := context.Background()

	setPeerState(c, p.hs.URL, StateSuspect)
	c.PublishImage(ctx, "img", []byte("v1"))
	setPeerState(c, p.hs.URL, StateAlive)
	done := make(chan int)
	go func() { done <- c.FlushHints(ctx) }()
	<-entered // v1 is on the wire

	// The peer drops out again and v2 is published to it: v2 replaces
	// v1 in the queue.
	setPeerState(c, p.hs.URL, StateSuspect)
	c.PublishImage(ctx, "img", []byte("v2"))
	close(release)
	if n := <-done; n != 1 {
		t.Fatalf("FlushHints delivered %d hints, want 1 (v1)", n)
	}
	if st := c.Counters(); st.HintsPending != 1 {
		t.Fatalf("hints pending = %d after v1 was delivered, want 1 (v2)", st.HintsPending)
	}

	setPeerState(c, p.hs.URL, StateAlive)
	if n := c.FlushHints(ctx); n != 1 {
		t.Fatalf("second FlushHints delivered %d hints, want 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(puts) != 2 || puts[0] != "v1" || puts[1] != "v2" {
		t.Fatalf("peer received %q, want v1 then v2", puts)
	}
}

// TestHintLogWriteFailureGoesMemoryOnly makes the log's rewrite fail
// (a directory at its path defeats the rename even for root): the
// failure is counted, the stale path is removed so a restart cannot
// replay it, and the hints keep working from memory.
func TestHintLogWriteFailureGoesMemoryOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "HINTS")
	p := newFakePeer(t, nil)
	c, err := New(Config{
		Self:           "http://self.invalid:1",
		Peers:          []string{p.hs.URL},
		Replication:    2,
		ProbeInterval:  -1,
		GossipInterval: -1,
		HintPath:       path,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()

	setPeerState(c, p.hs.URL, StateSuspect)
	c.PublishImage(ctx, "img-1", []byte("wire-1"))
	if st := c.Counters(); st.HintWriteErrors != 0 || st.HintsPending != 1 {
		t.Fatalf("writable log: write errors=%d pending=%d, want 0, 1", st.HintWriteErrors, st.HintsPending)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}

	c.PublishImage(ctx, "img-2", []byte("wire-2"))
	if st := c.Counters(); st.HintWriteErrors != 1 || st.HintsPending != 2 {
		t.Fatalf("failed rewrite: write errors=%d pending=%d, want 1, 2", st.HintWriteErrors, st.HintsPending)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stale log path still there after the failed rewrite (stat: %v)", err)
	}

	// Memory only from here: no further write is tried, so none fails,
	// and a restart finds nothing to replay.
	c.PublishImage(ctx, "img-3", []byte("wire-3"))
	if st := c.Counters(); st.HintWriteErrors != 1 || st.HintsPending != 3 {
		t.Fatalf("memory-only log: write errors=%d pending=%d, want 1, 3", st.HintWriteErrors, st.HintsPending)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("memory-only log wrote %s (stat: %v)", path, err)
	}
	setPeerState(c, p.hs.URL, StateAlive)
	if n := c.FlushHints(ctx); n != 3 || p.puts.Load() != 3 {
		t.Fatalf("FlushHints delivered %d hints (peer saw %d PUTs), want 3", n, p.puts.Load())
	}
}
