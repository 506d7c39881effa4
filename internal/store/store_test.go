package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"compaqt/internal/core"
	"compaqt/internal/device"
)

// testImage compiles a small real library slice under the given name:
// the store's inputs in production are exactly these compiler outputs.
func testImage(t testing.TB, name string, pulses int) *core.Image {
	t.Helper()
	lib := device.Bogota().Library()
	if pulses > len(lib) {
		pulses = len(lib)
	}
	c := &core.Compiler{WindowSize: 16}
	img, err := c.CompilePulses(name, lib[:pulses])
	if err != nil {
		t.Fatalf("compiling test image: %v", err)
	}
	return img
}

func wireOf(t testing.TB, img *core.Image) []byte {
	t.Helper()
	b, err := img.AppendTo(nil)
	if err != nil {
		t.Fatalf("serializing test image: %v", err)
	}
	return b
}

func mustOpen(t testing.TB, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetByteIdentity(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	img := testImage(t, "lib", 4)
	want := wireOf(t, img)

	if err := s.PutImage("lib", img); err != nil {
		t.Fatalf("PutImage: %v", err)
	}
	blob, ok := s.Get("lib")
	if !ok {
		t.Fatal("Get(lib) missed after PutImage")
	}
	defer blob.Release()
	if !bytes.Equal(blob.Bytes(), want) {
		t.Fatalf("stored bytes differ from AppendTo: %d vs %d bytes", len(blob.Bytes()), len(want))
	}
	if blob.Size() != int64(len(want)) {
		t.Fatalf("Size() = %d, want %d", blob.Size(), len(want))
	}
	// The served bytes must decode back to the same image.
	back, err := core.DecodeImageBytes(blob.Bytes())
	if err != nil {
		t.Fatalf("DecodeImageBytes(stored): %v", err)
	}
	if back.Machine != img.Machine || len(back.Entries) != len(img.Entries) {
		t.Fatalf("decoded image mismatch: %q/%d entries, want %q/%d",
			back.Machine, len(back.Entries), img.Machine, len(img.Entries))
	}
	if err := s.Healthy(); err != nil {
		t.Fatalf("Healthy after clean put: %v", err)
	}
	st := s.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Objects != 1 || st.Names != 1 {
		t.Fatalf("stats = %+v, want 1 put / 1 hit / 1 object / 1 name", st)
	}
	if st.Bytes != int64(len(want)) {
		t.Fatalf("stats.Bytes = %d, want %d", st.Bytes, len(want))
	}
}

func TestPutDedupAndContentSharing(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	img := testImage(t, "lib", 3)

	for i := 0; i < 3; i++ {
		if err := s.PutImage("a", img); err != nil {
			t.Fatalf("PutImage a#%d: %v", i, err)
		}
	}
	if st := s.Stats(); st.Puts != 1 || st.PutDedups != 2 {
		t.Fatalf("stats = %+v, want 1 put / 2 dedups", st)
	}
	// Identical content under a second name shares one object.
	if err := s.PutImage("b", img); err != nil {
		t.Fatalf("PutImage b: %v", err)
	}
	st := s.Stats()
	if st.Objects != 1 || st.Names != 2 {
		t.Fatalf("stats = %+v, want 1 object / 2 names", st)
	}
	ba, _ := s.Get("a")
	bb, _ := s.Get("b")
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("shared-content names serve different bytes")
	}
	ba.Release()
	bb.Release()
}

func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	wires := map[string][]byte{}
	s := mustOpen(t, dir, 0)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("lib-%d", i)
		img := testImage(t, name, i+2)
		wires[name] = wireOf(t, img)
		if err := s.PutImage(name, img); err != nil {
			t.Fatalf("PutImage %s: %v", name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, ok := s.Get("lib-0"); ok {
		t.Fatal("Get hit on a closed store")
	}

	s2 := mustOpen(t, dir, 0)
	st := s2.Stats()
	if st.Recovered != 3 || st.Names != 3 {
		t.Fatalf("restart stats = %+v, want 3 recovered / 3 names", st)
	}
	for name, want := range wires {
		blob, ok := s2.Get(name)
		if !ok {
			t.Fatalf("Get(%s) missed after restart", name)
		}
		if !bytes.Equal(blob.Bytes(), want) {
			t.Fatalf("%s: restarted bytes differ from original wire form", name)
		}
		blob.Release()
	}
}

func TestCrashSafetyTornWrite(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	img := testImage(t, "good", 3)
	want := wireOf(t, img)
	if err := s.PutImage("good", img); err != nil {
		t.Fatalf("PutImage: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a crash mid-publish: an orphaned temp object plus a torn
	// manifest append (half a record at the tail).
	objDir := filepath.Join(dir, "objects")
	if err := os.WriteFile(filepath.Join(objDir, "pub-123.tmp"), []byte("partial object"), 0o666); err != nil {
		t.Fatal(err)
	}
	man, err := os.OpenFile(filepath.Join(dir, "MANIFEST"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := encodeRecord(opBind, "torn", bindRec{size: 99})
	if _, err := man.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	man.Close()

	s2 := mustOpen(t, dir, 0)
	st := s2.Stats()
	if st.Names != 1 || st.Recovered != 1 {
		t.Fatalf("stats after torn write = %+v, want exactly the 1 whole entry", st)
	}
	if st.OrphansCleaned == 0 {
		t.Fatalf("stats = %+v, want the orphaned tmp counted as cleaned", st)
	}
	if _, ok := s2.Get("torn"); ok {
		t.Fatal("torn binding survived recovery")
	}
	blob, ok := s2.Get("good")
	if !ok {
		t.Fatal("whole entry lost during recovery")
	}
	if !bytes.Equal(blob.Bytes(), want) {
		t.Fatal("whole entry corrupted during recovery")
	}
	blob.Release()
	if ents, _ := os.ReadDir(objDir); len(ents) != 1 {
		t.Fatalf("objects dir holds %d files after recovery, want 1", len(ents))
	}
}

func TestCorruptObjectDropped(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	imgA, imgB := testImage(t, "a", 2), testImage(t, "b", 4)
	if err := s.PutImage("a", imgA); err != nil {
		t.Fatal(err)
	}
	if err := s.PutImage("b", imgB); err != nil {
		t.Fatal(err)
	}
	keyA := DigestImage(imgA)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte in a's object: its content sum no longer matches
	// the manifest, so recovery must drop it and keep b.
	path := s.objectPath(keyA)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, 0)
	if _, ok := s2.Get("a"); ok {
		t.Fatal("corrupted object served after restart")
	}
	if _, ok := s2.Get("b"); !ok {
		t.Fatal("intact object lost while dropping the corrupted one")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupted object file not swept")
	}
}

func TestGCEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	imgs := make([]*core.Image, 3)
	sizes := make([]int64, 3)
	for i := range imgs {
		imgs[i] = testImage(t, fmt.Sprintf("lib-%d", i), i+2)
		sizes[i] = int64(len(wireOf(t, imgs[i])))
	}
	// Budget for the two largest: inserting all three must evict
	// exactly the least recently used.
	s := mustOpen(t, dir, sizes[1]+sizes[2])
	if err := s.PutImage("lib-0", imgs[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.PutImage("lib-1", imgs[1]); err != nil {
		t.Fatal(err)
	}
	// Touch lib-0 so lib-1 is the LRU when lib-2 arrives.
	if blob, ok := s.Get("lib-0"); ok {
		blob.Release()
	} else {
		t.Fatal("Get(lib-0) missed")
	}
	if err := s.PutImage("lib-2", imgs[2]); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get("lib-1"); ok {
		t.Fatal("LRU entry lib-1 survived over-budget insert")
	}
	for _, name := range []string{"lib-0", "lib-2"} {
		if _, ok := s.Get(name); !ok {
			t.Fatalf("recently used %s was evicted", name)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.EvictedBytes != uint64(sizes[1]) {
		t.Fatalf("stats = %+v, want 1 eviction of %d bytes", st, sizes[1])
	}
	if st.Bytes > s.maxBytes {
		t.Fatalf("bytes %d exceed budget %d after GC", st.Bytes, s.maxBytes)
	}
	// The evicted object's file is gone.
	if _, err := os.Stat(s.objectPath(DigestImage(imgs[1]))); !os.IsNotExist(err) {
		t.Fatal("evicted object file not removed")
	}
}

func TestEvictionPinsActiveReads(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 1) // budget below any object: every new put evicts the previous
	imgA := testImage(t, "a", 2)
	want := wireOf(t, imgA)
	if err := s.PutImage("a", imgA); err != nil {
		t.Fatal(err)
	}
	blob, ok := s.Get("a")
	if !ok {
		t.Fatal("Get(a) missed")
	}
	o := blob.o

	// Evict a while the read is in flight (the single-object guard
	// keeps the newest object, so inserting b evicts a).
	if err := s.PutImage("b", testImage(t, "b", 3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("evicted name still resolves")
	}
	// The pinned mapping must still hold the full, correct bytes even
	// though the entry is unindexed and its file unlinked.
	if !bytes.Equal(blob.Bytes(), want) {
		t.Fatal("pinned bytes corrupted by eviction")
	}
	blob.Release()
	if o.refs.Load() != 0 || o.data != nil {
		t.Fatalf("object not released after last ref: refs=%d data=%v", o.refs.Load(), o.data != nil)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	imgs := make([]*core.Image, 4)
	for i := range imgs {
		imgs[i] = testImage(t, fmt.Sprintf("lib-%d", i), i+2)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := (w + i) % len(imgs)
				name := fmt.Sprintf("lib-%d", n)
				if w%2 == 0 {
					if err := s.PutImage(name, imgs[n]); err != nil {
						t.Errorf("PutImage %s: %v", name, err)
						return
					}
				}
				if blob, ok := s.Get(name); ok {
					if len(blob.Bytes()) == 0 {
						t.Errorf("Get(%s): empty pinned bytes", name)
					}
					blob.Release()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Healthy(); err != nil {
		t.Fatalf("Healthy after concurrent traffic: %v", err)
	}
}

func TestNoMmapFallback(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	s.noMmap = true
	img := testImage(t, "lib", 3)
	want := wireOf(t, img)
	if err := s.PutImage("lib", img); err != nil {
		t.Fatal(err)
	}
	blob, ok := s.Get("lib")
	if !ok {
		t.Fatal("Get missed on the fallback path")
	}
	if !bytes.Equal(blob.Bytes(), want) {
		t.Fatal("fallback path serves different bytes")
	}
	blob.Release()
	if st := s.Stats(); st.CopyServes != 1 || st.MmapServes != 0 {
		t.Fatalf("stats = %+v, want the hit counted as a copy serve", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// What the fallback path published must recover like any other
	// object.
	s2 := mustOpen(t, dir, 0)
	if blob, ok := s2.Get("lib"); !ok || !bytes.Equal(blob.Bytes(), want) {
		t.Fatal("recovered entry does not serve original bytes")
	} else {
		blob.Release()
	}
}

func TestDoubleOpenRefused(t *testing.T) {
	if !mmapSupported {
		t.Skip("flock guard needs unix")
	}
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	if _, err := Open(dir, 0); err == nil {
		t.Fatal("second Open of a live store directory succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close the directory is free again.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()
}

func TestDegradedManifestKeepsServing(t *testing.T) {
	dir := t.TempDir()
	// A directory squatting on the manifest path defeats every write
	// (compaction renames and appends alike) without touching reads —
	// the store must degrade, not fail.
	if err := os.Mkdir(filepath.Join(dir, "MANIFEST"), 0o777); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("Open with unusable manifest: %v", err)
	}
	defer s.Close()
	if err := s.Healthy(); err == nil {
		t.Fatal("Healthy() = nil with an unusable manifest")
	}
	img := testImage(t, "lib", 2)
	want := wireOf(t, img)
	if err := s.PutImage("lib", img); err != nil {
		t.Fatalf("PutImage on degraded store: %v", err)
	}
	// The put is served from memory for this process even though it
	// could not be made durable.
	blob, ok := s.Get("lib")
	if !ok {
		t.Fatal("degraded store lost the in-process put")
	}
	if !bytes.Equal(blob.Bytes(), want) {
		t.Fatal("degraded store serves wrong bytes")
	}
	blob.Release()
	if err := s.Healthy(); err == nil {
		t.Fatal("Healthy() = nil while the manifest is unwritable")
	}
}

func TestPutImageSkipsUnrepresentable(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	cases := []*core.Image{
		nil,
		{},             // no entries
		{Machine: "m"}, // still no entries
		{Machine: "m", Entries: testImage(t, "x", 1).Entries}, // WindowSize 0
	}
	for i, img := range cases {
		if err := s.PutImage("skip", img); err != nil {
			t.Fatalf("case %d: PutImage returned %v, want silent skip", i, err)
		}
	}
	if err := s.PutImage("", testImage(t, "x", 1)); err != nil {
		t.Fatalf("empty name: %v, want silent skip", err)
	}
	if st := s.Stats(); st.Puts != 0 || st.Names != 0 {
		t.Fatalf("stats = %+v, want nothing stored", st)
	}
}

func TestNamesSorted(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := s.PutImage(name, testImage(t, name, 2)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Names()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestManifestCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1) // evict on every insert: unbind records accumulate
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("lib-%d", i%5)
		if err := s.PutImage(name, testImage(t, name, i%3+2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close compacts nothing; Open does. After reopen the log holds
	// only live binds, so it must be small.
	s2 := mustOpen(t, dir, 1)
	fi, err := os.Stat(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	if max := int64(len(manifestMagic) + 16*(7+maxNameLenSmall+bindTail)); fi.Size() > max {
		t.Fatalf("manifest is %d bytes after compaction, want <= %d", fi.Size(), max)
	}
	if st := s2.Stats(); st.Names == 0 {
		t.Fatal("compacted store lost all entries")
	}
}

// maxNameLenSmall bounds the names the compaction test writes.
const maxNameLenSmall = 16

// TestStoreOpensUnversionedDirectory lays out a directory the way a
// store did before bindings carried versions: its manifest holds only
// unversioned bind records. Every binding must open at version 0 and
// serve byte-identically, and a versioned write must supersede it.
func TestStoreOpensUnversionedDirectory(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	wires := map[string][]byte{}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("lib-%d", i)
		img := testImage(t, name, i+2)
		wires[name] = wireOf(t, img)
		if err := s.PutImage(name, img); err != nil {
			t.Fatal(err)
		}
	}
	binds := s.Bindings()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	man := []byte(manifestMagic)
	for _, b := range binds {
		rec := bindRec{key: b.Key, sum: sumBytes(wires[b.Name]), size: b.Size}
		man = append(man, encodeRecord(opBindV0, b.Name, rec)...)
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), man, 0o666); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, 0)
	if st := s2.Stats(); st.Recovered != 3 {
		t.Fatalf("reopened an unversioned directory with %d bindings, want 3", st.Recovered)
	}
	for name, want := range wires {
		b, ok := s2.Lookup(name)
		if !ok || b.Version != 0 {
			t.Fatalf("%s: binding %+v (found %v), want version 0", name, b, ok)
		}
		blob, ok := s2.Get(name)
		if !ok || !bytes.Equal(blob.Bytes(), want) {
			t.Fatalf("%s: reopened bytes differ from the original wire form", name)
		}
		blob.Release()
	}
	other := wireOf(t, testImage(t, "other", 5))
	if err := s2.Put("lib-0", DigestWire(other), 1, other); err != nil {
		t.Fatal(err)
	}
	if blob, ok := s2.Get("lib-0"); !ok || !bytes.Equal(blob.Bytes(), other) {
		t.Fatal("a versioned write did not supersede an unversioned binding")
	} else {
		blob.Release()
	}
}

// TestStorePutKeepsNewerBinding: Put replaces a binding only with a
// newer one, and at equal versions with the greater digest, whatever
// order the writes arrive in.
func TestStorePutKeepsNewerBinding(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	a, b := wireOf(t, testImage(t, "a", 2)), wireOf(t, testImage(t, "b", 3))
	ka, kb := DigestWire(a), DigestWire(b)
	served := func() []byte {
		t.Helper()
		blob, ok := s.Get("lib")
		if !ok {
			t.Fatal("lib not bound")
		}
		defer blob.Release()
		return bytes.Clone(blob.Bytes())
	}
	if err := s.Put("lib", ka, 5, a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("lib", kb, 4, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served(), a) {
		t.Fatal("an older version replaced a newer one")
	}
	if st := s.Stats(); st.Objects != 1 {
		t.Fatalf("the stale write left %d objects, want 1", st.Objects)
	}
	// A tie goes to the greater digest, from either side.
	hi, lo, khi, klo := a, b, ka, kb
	if bytes.Compare(ka[:], kb[:]) < 0 {
		hi, lo, khi, klo = b, a, kb, ka
	}
	if err := s.Put("lib", klo, 9, lo); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("lib", khi, 9, hi); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("lib", klo, 9, lo); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served(), hi) {
		t.Fatal("an equal-version write with the smaller digest won")
	}
	// A newer version of the same bytes is a dedup that raises the
	// version.
	dedups := s.Stats().PutDedups
	if err := s.Put("lib", khi, 10, hi); err != nil {
		t.Fatal(err)
	}
	if bd, _ := s.Lookup("lib"); bd.Version != 10 || s.Stats().PutDedups != dedups+1 {
		t.Fatalf("version raise: binding %+v, dedups %d, want version 10, %d", bd, s.Stats().PutDedups, dedups+1)
	}
}

// TestStoreVersionsSurviveRestart: a restart keeps every binding's
// version, the ones a same-bytes write only raised included.
func TestStoreVersionsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	a, b := wireOf(t, testImage(t, "a", 2)), wireOf(t, testImage(t, "b", 3))
	for _, put := range []struct {
		name    string
		wire    []byte
		version uint64
	}{{"a", a, 3}, {"b", b, 7}, {"b", b, 1 << 62}} {
		if err := s.Put(put.name, DigestWire(put.wire), put.version, put.wire); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, 0)
	for name, want := range map[string]uint64{"a": 3, "b": 1 << 62} {
		if bd, ok := s2.Lookup(name); !ok || bd.Version != want {
			t.Fatalf("%s after restart: %+v (found %v), want version %d", name, bd, ok, want)
		}
		blob, ok := s2.Get(name)
		if !ok || blob.Version() != want {
			t.Fatalf("%s: Get read version %d, want %d", name, blob.Version(), want)
		}
		blob.Release()
	}
}
