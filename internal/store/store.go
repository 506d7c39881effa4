// Package store is compaqt's persistent content-addressed image store:
// serialized CPQT images on disk, addressed by the same sha256 content
// digests that key the compile cache and the serving layer's byte
// cache, served back through mmap with zero copies and zero
// steady-state allocations.
//
// Layout of a store directory:
//
//	<dir>/MANIFEST        append-only name -> (digest, version) log (manifest.go)
//	<dir>/LOCK            flock guard against a second concurrent Open
//	<dir>/objects/<key>.cpqt   one wire-format image per content digest
//
// Publishing is crash-safe: the wire bytes are written to a temp file,
// fsynced, renamed into place, and only then recorded in the manifest
// (again fsynced) — a crash at any point leaves either a *.tmp orphan
// (swept at the next open) or a whole object with a whole binding.
// Reads mmap the object once and serve the mapped bytes to every
// caller; regions are refcounted, so size-bounded LRU GC can unlink an
// object while requests are still streaming it — the mapping is
// unmapped only when the last reference drops. On restart, Open replays
// the manifest, verifies every object's size and content sum, drops
// anything torn, and the process is warm: previously compiled images
// serve byte-identically with zero recompiles.
//
// Every name binding carries a version, set where a client bound the
// name and carried by the cluster with the bytes. Put replaces a
// binding only with a newer one (Supersedes), so writes that arrive in
// any order leave the store on the same winner.
package store

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compaqt/internal/cache"
	"compaqt/internal/core"
)

const (
	// DefaultMaxBytes bounds a store opened with maxBytes == 0: 1 GiB
	// of serialized images, a few thousand realistic pulse libraries.
	DefaultMaxBytes = 1 << 30
	// MaxNameLen caps one image name on disk and in the manifest.
	MaxNameLen = 4096
	// MaxObjectBytes caps one serialized image; together with the
	// size-vs-file cross-check it bounds what a hostile manifest can
	// make Open map.
	MaxObjectBytes = 1 << 30
	objectExt      = ".cpqt"
)

var errClosed = errors.New("store: closed")

// nameBind is one name's binding: the object it points at and the
// binding's version.
type nameBind struct {
	o       *object
	version uint64
}

// object is one resident content-addressed blob: the mapped (or
// copied) wire bytes plus the names bound to them. refs counts the
// bindings and every live Blob; whoever drops it to zero unmaps. New
// references are only ever taken while a binding keeps the object in
// the maps, so the final unmap cannot race a reader.
type object struct {
	key  cache.Key
	sum  cache.Key
	size int64
	data []byte
	// mapped records whether data is an mmap region (needs munmap) or
	// a heap copy (the no-mmap fallback; the GC just drops it).
	mapped bool
	// bound lists the names referencing this object; guarded by the
	// store mutex.
	bound    []string
	refs     atomic.Int64
	lastUsed atomic.Int64
}

// release drops one reference, unmapping at zero.
func (o *object) release() {
	if o.refs.Add(-1) == 0 {
		if o.mapped {
			unmapBytes(o.data)
			o.mapped = false
		}
		o.data = nil
	}
}

// Blob is one pinned read of a stored image: Bytes stays valid — even
// across GC eviction of the entry — until Release. The zero Blob is
// inert. Blobs are values; taking one allocates nothing.
type Blob struct {
	o       *object
	version uint64
}

// Version returns the version of the binding Get read.
func (b Blob) Version() uint64 { return b.version }

// Bytes returns the image's serialized wire form. The slice aliases
// the mapped region (or its fallback copy) and must not be written.
func (b Blob) Bytes() []byte {
	if b.o == nil {
		return nil
	}
	return b.o.data
}

// Size returns the wire length.
func (b Blob) Size() int64 {
	if b.o == nil {
		return 0
	}
	return b.o.size
}

// Key returns the content digest the blob is stored under.
func (b Blob) Key() cache.Key {
	if b.o == nil {
		return cache.Key{}
	}
	return b.o.key
}

// Release unpins the read. It must be called exactly once per Blob
// obtained from Get; the bytes are invalid afterwards.
func (b Blob) Release() {
	if b.o != nil {
		b.o.release()
	}
}

// Store is the on-disk content-addressed image store. All methods are
// safe for concurrent use; Get is lock-striped for the serving hot
// path (one RLock plus two atomics, no allocations).
type Store struct {
	dir      string
	objDir   string
	manPath  string
	maxBytes int64
	// noMmap forces the heap-copy read path (tests exercise the
	// platform fallback without a second platform).
	noMmap bool

	mu      sync.RWMutex
	closed  bool
	byName  map[string]nameBind
	byKey   map[cache.Key]*object
	bytes   int64
	man     *os.File // manifest append handle; nil when degraded read-only
	lock    *os.File // flock guard on <dir>/LOCK
	appends int      // records since the last compaction

	clock atomic.Int64

	// errMu guards the degraded-state machine: lastErr (nil = healthy),
	// the re-probe goroutine's liveness flag and its interval. Lock
	// order is always mu before errMu, never the reverse.
	errMu      sync.Mutex
	lastErr    error
	probing    bool
	probeEvery time.Duration
	probeStop  chan struct{}

	hits, misses           atomic.Uint64
	puts, putDedups        atomic.Uint64
	evictions, evictedByte atomic.Uint64
	mmapServes, copyServes atomic.Uint64
	recoveredWrites        atomic.Uint64
	probes                 atomic.Uint64
	recovered, orphans     int // set once by Open's scan
}

// Stats is a point-in-time snapshot of store activity.
type Stats struct {
	// Objects and Names count resident content blobs and the name
	// bindings over them; Bytes is their on-disk footprint, bounded by
	// MaxBytes via LRU GC.
	Objects, Names  int
	Bytes, MaxBytes int64
	// Hits and Misses count Get outcomes; Puts counts publishes that
	// wrote or rebound content, PutDedups those short-circuited because
	// the name already held the identical digest (a newer version of it
	// included).
	Hits, Misses, Puts, PutDedups uint64
	// Evictions and EvictedBytes account the LRU GC.
	Evictions, EvictedBytes uint64
	// MmapServes and CopyServes split Get hits by read path: page-cache
	// mappings vs the heap-copy fallback.
	MmapServes, CopyServes uint64
	// RecoveredWrites counts degraded -> healthy transitions: each is a
	// persistence failure that healed (by re-probe or a succeeding
	// write) without a restart. Probes counts re-probe attempts.
	RecoveredWrites, Probes uint64
	// Recovered is the bindings the startup scan restored (the warm
	// restart); OrphansCleaned the tmp files, unreferenced objects and
	// corrupt entries it swept.
	Recovered, OrphansCleaned int
}

// Open opens (creating as needed) the store rooted at dir, bounded to
// about maxBytes of serialized images (0 selects DefaultMaxBytes). It
// replays the manifest, sweeps crash orphans, verifies every recovered
// object's size and content sum, and compacts the log — after which
// previously published images serve without recompilation. A directory
// that exists but cannot be written opens degraded (see Healthy):
// recovered entries still serve, new publishes fail softly.
func Open(dir string, maxBytes int64) (*Store, error) {
	switch {
	case maxBytes == 0:
		maxBytes = DefaultMaxBytes
	case maxBytes < 0:
		return nil, fmt.Errorf("store: max bytes %d must be positive", maxBytes)
	}
	s := &Store{
		dir:        dir,
		objDir:     filepath.Join(dir, "objects"),
		manPath:    filepath.Join(dir, "MANIFEST"),
		maxBytes:   maxBytes,
		byName:     map[string]nameBind{},
		byKey:      map[cache.Key]*object{},
		probeEvery: defaultProbeEvery,
		probeStop:  make(chan struct{}),
	}
	if err := os.MkdirAll(s.objDir, 0o777); err != nil {
		if fi, statErr := os.Stat(s.objDir); statErr != nil || !fi.IsDir() {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.setErr(fmt.Errorf("store dir not writable: %w", err))
	}
	if err := s.acquireLock(); err != nil {
		return nil, err
	}
	s.recover()
	return s, nil
}

// acquireLock flocks <dir>/LOCK so two Stores cannot share a directory
// (their manifests would corrupt each other's view). Degraded read-only
// directories skip the guard — nothing will be written anyway.
func (s *Store) acquireLock() error {
	f, err := os.OpenFile(filepath.Join(s.dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o666)
	if err != nil {
		if f, err = os.Open(filepath.Join(s.dir, "LOCK")); err != nil {
			return nil // read-only dir without a LOCK file: nothing to guard
		}
	}
	if err := lockHandle(f); err != nil {
		f.Close()
		return fmt.Errorf("store: directory %s is in use by another store: %w", s.dir, err)
	}
	s.lock = f
	return nil
}

// recover is Open's startup scan. It runs before the store is shared,
// so it mutates state without the mutex.
func (s *Store) recover() {
	binds := scanManifest(s.manPath)

	// Sweep crash debris: temp files from torn publishes (objects dir)
	// and torn compactions (store root). A publish that crashed before
	// its rename left only a *.tmp — by construction no manifest record
	// points at it, so removal is always safe.
	for _, d := range []string{s.objDir, s.dir} {
		ents, err := os.ReadDir(d)
		if err != nil {
			continue
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
				if os.Remove(filepath.Join(d, e.Name())) == nil {
					s.orphans++
				}
			}
		}
	}

	// Rebuild bindings in deterministic order, verifying each object:
	// the file must exist at its recorded size and hash back to the
	// recorded content sum. Anything else — a torn write, a bit flip, a
	// hostile manifest — drops the binding; the unreferenced sweep
	// below then removes the file.
	names := make([]string, 0, len(binds))
	for n := range binds {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		r := binds[name]
		if name == "" || len(name) > MaxNameLen || r.size <= 0 || r.size > MaxObjectBytes {
			continue
		}
		if o := s.byKey[r.key]; o != nil {
			if o.sum == r.sum && o.size == r.size {
				s.bindLocked(name, o, r.version)
				s.recovered++
			}
			continue
		}
		path := s.objectPath(r.key)
		fi, err := os.Stat(path)
		if err != nil || fi.Size() != r.size {
			continue
		}
		data, mapped, err := s.loadObject(path, r.size)
		if err != nil {
			continue
		}
		if sumBytes(data) != r.sum {
			if mapped {
				unmapBytes(data)
			}
			s.orphans++ // corrupt object: binding dropped, file swept below
			continue
		}
		o := &object{key: r.key, sum: r.sum, size: r.size, data: data, mapped: mapped}
		s.byKey[r.key] = o
		s.bytes += r.size
		s.bindLocked(name, o, r.version)
		s.recovered++
	}

	// Sweep object files no surviving binding references.
	if ents, err := os.ReadDir(s.objDir); err == nil {
		for _, e := range ents {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, objectExt) {
				continue
			}
			var k cache.Key
			raw, err := hex.DecodeString(strings.TrimSuffix(n, objectExt))
			if err == nil && len(raw) == len(k) {
				copy(k[:], raw)
				if _, live := s.byKey[k]; live {
					continue
				}
			}
			if os.Remove(filepath.Join(s.objDir, n)) == nil {
				s.orphans++
			}
		}
	}

	s.compactLocked()
	s.gcLocked()
}

func (s *Store) objectPath(k cache.Key) string {
	return filepath.Join(s.objDir, hex.EncodeToString(k[:])+objectExt)
}

// loadObject maps (or, without mmap, copies) one published object.
func (s *Store) loadObject(path string, size int64) (data []byte, mapped bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	if mmapSupported && !s.noMmap {
		if data, err := fsMapFile(f, size); err == nil {
			return data, true, nil
		}
	}
	data = make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, false, err
	}
	return data, false, nil
}

// bindLocked points name at o at the given version, displacing any
// previous binding.
func (s *Store) bindLocked(name string, o *object, version uint64) {
	if old, ok := s.byName[name]; ok {
		if old.o == o {
			s.byName[name] = nameBind{o, version}
			o.lastUsed.Store(s.clock.Add(1))
			return
		}
		s.unbindLocked(name, old.o)
	}
	s.byName[name] = nameBind{o, version}
	o.bound = append(o.bound, name)
	o.refs.Add(1)
	o.lastUsed.Store(s.clock.Add(1))
}

// unbindLocked removes one name -> object binding. When the object's
// last binding goes its file is unlinked and its accounting released;
// the mapping itself survives until the last pinned Blob drops.
func (s *Store) unbindLocked(name string, o *object) {
	delete(s.byName, name)
	for i, n := range o.bound {
		if n == name {
			o.bound = append(o.bound[:i], o.bound[i+1:]...)
			break
		}
	}
	if len(o.bound) == 0 {
		delete(s.byKey, o.key)
		s.bytes -= o.size
		if err := os.Remove(s.objectPath(o.key)); err != nil && !os.IsNotExist(err) {
			s.setErr(fmt.Errorf("removing evicted object: %w", err))
		}
	}
	o.release()
}

// Get returns a pinned read of the image stored under name. The hot
// path is one read-lock and two atomic stores — no allocations; the
// caller must Release the Blob when done writing its bytes out.
func (s *Store) Get(name string) (Blob, bool) {
	s.mu.RLock()
	b := s.byName[name]
	o := b.o
	if o == nil {
		s.mu.RUnlock()
		s.misses.Add(1)
		return Blob{}, false
	}
	o.refs.Add(1)
	o.lastUsed.Store(s.clock.Add(1))
	mapped := o.mapped
	s.mu.RUnlock()
	s.hits.Add(1)
	if mapped {
		s.mmapServes.Add(1)
	} else {
		s.copyServes.Add(1)
	}
	return Blob{o: o, version: b.version}, true
}

// Contains reports whether name is bound to exactly the given content
// digest, at any version, refreshing its recency when so. It is
// PutImage's dedup probe: a hit means the bytes are already durable.
func (s *Store) Contains(name string, key cache.Key) bool {
	s.mu.RLock()
	o := s.byName[name].o
	ok := o != nil && o.key == key
	if ok {
		o.lastUsed.Store(s.clock.Add(1))
	}
	s.mu.RUnlock()
	return ok
}

// Supersedes reports whether a binding at version with content digest
// key replaces one at cur with digest curKey: the greater version wins,
// and at equal versions the greater digest, so every node picks the
// same winner without comparing node identities.
func Supersedes(version uint64, key cache.Key, cur uint64, curKey cache.Key) bool {
	if version != cur {
		return version > cur
	}
	return bytes.Compare(key[:], curKey[:]) > 0
}

// Put binds name to wire (a serialized image with the given content
// digest) at version, when that binding supersedes the name's current
// one (Supersedes). Otherwise the name already holds this binding or a
// newer one: Put changes nothing and returns nil. Publishing new
// content is atomic and durable: temp file, fsync, rename, manifest
// append, fsync. A newer version of the bytes the name already holds
// appends its record without the fsyncs: the bytes are durable, and a
// crash can cost only the newer version. Identical content under a
// second name shares one object file. The store's byte budget is
// enforced after the insert with LRU eviction.
func (s *Store) Put(name string, key cache.Key, version uint64, wire []byte) error {
	switch {
	case name == "" || len(name) > MaxNameLen:
		return fmt.Errorf("store: invalid image name (%d bytes)", len(name))
	case len(wire) == 0 || int64(len(wire)) > MaxObjectBytes:
		return fmt.Errorf("store: image of %d bytes is not storable", len(wire))
	}

	var (
		data     []byte
		mapped   bool
		sum      cache.Key
		prepared bool
	)
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			if mapped {
				unmapBytes(data)
			}
			return errClosed
		}
		cur, held := s.byName[name]
		if held && !Supersedes(version, key, cur.version, cur.o.key) {
			// An object this call published meanwhile stays on disk
			// unreferenced until the next Open sweeps it: a concurrent
			// Put of the same content may be about to bind it.
			if cur.o.key == key {
				cur.o.lastUsed.Store(s.clock.Add(1))
				s.putDedups.Add(1)
			}
			s.mu.Unlock()
			if mapped {
				unmapBytes(data)
			}
			return nil
		}
		o := s.byKey[key]
		if o == nil && !prepared {
			// Publish the object file outside the lock: reads must not
			// stall behind write IO and fsyncs.
			s.mu.Unlock()
			var err error
			if data, mapped, sum, err = s.publish(key, wire); err != nil {
				s.setErr(err)
				return err
			}
			prepared = true
			continue
		}
		if o == nil {
			o = &object{key: key, sum: sum, size: int64(len(wire)), data: data, mapped: mapped}
			s.byKey[key] = o
			s.bytes += o.size
		} else if prepared && mapped {
			// A concurrent Put of the same content won the insert; ours
			// mapped the same file and is redundant.
			unmapBytes(data)
		}
		raise := held && cur.o == o
		s.bindLocked(name, o, version)
		err := appendRecord(s.man, opBind, name, bindRec{key: o.key, sum: o.sum, size: o.size, version: version}, !raise)
		if err != nil {
			s.setErr(fmt.Errorf("manifest append: %w", err))
		}
		s.appends++
		s.gcLocked()
		s.maybeCompactLocked()
		s.mu.Unlock()
		if raise {
			s.putDedups.Add(1)
		} else {
			s.puts.Add(1)
		}
		if err == nil {
			s.clearErr()
		}
		return nil
	}
}

// publish writes wire to a temp file in the objects directory, fsyncs,
// and renames it to its content address, then maps it back for serving.
func (s *Store) publish(key cache.Key, wire []byte) (data []byte, mapped bool, sum cache.Key, err error) {
	sum = sumBytes(wire)
	f, err := fsCreateTemp(s.objDir, "pub-*.tmp")
	if err != nil {
		return nil, false, sum, fmt.Errorf("publishing object: %w", err)
	}
	tmp := f.Name()
	_, err = fsWrite(f, wire)
	if err == nil {
		err = fsSync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	path := s.objectPath(key)
	if err == nil {
		err = fsRename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return nil, false, sum, fmt.Errorf("publishing object: %w", err)
	}
	data, mapped, err = s.loadObject(path, int64(len(wire)))
	if err != nil {
		// The bytes are durable but unreadable back (exotic FS): serve
		// this process from a private copy; the next open re-verifies.
		data = append([]byte(nil), wire...)
		mapped = false
	}
	return data, mapped, sum, nil
}

// wireBufPool stages PutImage serializations; buffers keep their
// capacity so steady publish traffic serializes allocation-free.
var wireBufPool = sync.Pool{New: func() any { return new([]byte) }}

// PutImage serializes img and publishes it under name at version 0,
// the version of every binding written before bindings carried one: a
// new name binds, and a name already bound keeps its binding unless
// the tie rule of Supersedes prefers img. Images the wire
// format cannot represent (non-int-DCT-W variants, empty libraries)
// are skipped silently — persistence mirrors exactly what GET
// /v1/images can serve. Content already stored under name is detected
// by digest before any serialization happens, so the write-through on
// a steady compile stream costs one hash and one map probe.
func (s *Store) PutImage(name string, img *core.Image) error {
	if img == nil || name == "" || len(img.Entries) == 0 || img.WindowSize == 0 {
		return nil
	}
	key := DigestImage(img)
	if s.Contains(name, key) {
		s.putDedups.Add(1)
		return nil
	}
	bp := wireBufPool.Get().(*[]byte)
	wire, err := img.AppendTo((*bp)[:0])
	if err != nil {
		*bp = wire[:0]
		wireBufPool.Put(bp)
		return nil // not representable on the wire: nothing to persist
	}
	err = s.Put(name, key, 0, wire)
	*bp = wire[:0]
	wireBufPool.Put(bp)
	return err
}

// gcLocked evicts least-recently-used objects until the byte budget
// holds. Pinned readers do not block eviction: the file is unlinked
// and the entry unindexed immediately, while the mapped region lives
// until its refcount drains. The most recent object always survives,
// even alone over budget.
func (s *Store) gcLocked() {
	for s.bytes > s.maxBytes && len(s.byKey) > 1 {
		var victim *object
		for _, o := range s.byKey {
			if victim == nil || o.lastUsed.Load() < victim.lastUsed.Load() {
				victim = o
			}
		}
		if victim == nil {
			return
		}
		size := victim.size
		for len(victim.bound) > 0 {
			name := victim.bound[len(victim.bound)-1]
			if err := appendRecord(s.man, opUnbind, name, bindRec{}, true); err != nil {
				s.setErr(fmt.Errorf("manifest append: %w", err))
			}
			s.appends++
			s.unbindLocked(name, victim)
		}
		s.evictions.Add(1)
		s.evictedByte.Add(uint64(size))
	}
}

// maybeCompactLocked rewrites the manifest once the log carries
// several times more records than live bindings.
func (s *Store) maybeCompactLocked() {
	if s.appends > 64 && s.appends > 4*len(s.byName) {
		s.compactLocked()
	}
}

// compactLocked atomically rewrites the manifest with only the live
// bindings and reopens the append handle. Failure (a read-only
// directory, typically) degrades the store but keeps it serving: the
// old log remains a superset of the live bindings, so a later open
// still recovers correctly.
func (s *Store) compactLocked() {
	binds := make([]namedBind, 0, len(s.byName))
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b := s.byName[n]
		binds = append(binds, namedBind{name: n, rec: bindRec{key: b.o.key, sum: b.o.sum, size: b.o.size, version: b.version}})
	}
	if err := writeCompactManifest(s.manPath, binds); err != nil {
		s.setErr(fmt.Errorf("manifest compaction: %w", err))
	}
	if s.man != nil {
		s.man.Close()
		s.man = nil
	}
	f, err := openAppend(s.manPath)
	if err != nil {
		s.setErr(fmt.Errorf("manifest open: %w", err))
		return
	}
	s.man = f
	s.appends = 0
}

// Names returns the bound image names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Binding is one name -> content binding the store holds, as the
// cluster's anti-entropy digest listing reports it.
type Binding struct {
	Name    string
	Key     cache.Key
	Size    int64
	Version uint64
}

// Lookup returns name's binding, if it has one.
func (s *Store) Lookup(name string) (Binding, bool) {
	s.mu.RLock()
	b, ok := s.byName[name]
	s.mu.RUnlock()
	if !ok {
		return Binding{}, false
	}
	return Binding{Name: name, Key: b.o.key, Size: b.o.size, Version: b.version}, true
}

// Bindings returns every live name -> digest binding, sorted by name.
func (s *Store) Bindings() []Binding {
	s.mu.RLock()
	out := make([]Binding, 0, len(s.byName))
	for n, b := range s.byName {
		out = append(out, Binding{Name: n, Key: b.o.key, Size: b.o.size, Version: b.version})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	objects, names, bytes := len(s.byKey), len(s.byName), s.bytes
	s.mu.RUnlock()
	return Stats{
		Objects: objects, Names: names,
		Bytes: bytes, MaxBytes: s.maxBytes,
		Hits: s.hits.Load(), Misses: s.misses.Load(),
		Puts: s.puts.Load(), PutDedups: s.putDedups.Load(),
		Evictions: s.evictions.Load(), EvictedBytes: s.evictedByte.Load(),
		MmapServes: s.mmapServes.Load(), CopyServes: s.copyServes.Load(),
		RecoveredWrites: s.recoveredWrites.Load(), Probes: s.probes.Load(),
		Recovered: s.recovered, OrphansCleaned: s.orphans,
	}
}

// defaultProbeEvery is the degraded store's re-probe cadence; see
// SetProbeInterval.
const defaultProbeEvery = time.Second

// Healthy reports the store's readiness: nil when fully operational,
// the most recent persistence failure otherwise (read-only directory,
// failing GC, manifest trouble). A degraded store keeps serving reads;
// callers surface the state as degraded, not down. Degradation is not
// terminal: a background re-probe loop retries the write path every
// probe interval and heals the store as soon as the disk recovers.
func (s *Store) Healthy() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.lastErr
}

func (s *Store) setErr(err error) {
	s.errMu.Lock()
	s.lastErr = err
	s.startProbeLoopLocked()
	s.errMu.Unlock()
}

// clearErr marks the store healthy; a degraded -> healthy transition
// counts as one recovered write path.
func (s *Store) clearErr() {
	s.errMu.Lock()
	if s.lastErr != nil {
		s.recoveredWrites.Add(1)
	}
	s.lastErr = nil
	s.errMu.Unlock()
}

// SetProbeInterval adjusts the degraded re-probe cadence (default 1s).
// Non-positive intervals are ignored.
func (s *Store) SetProbeInterval(d time.Duration) {
	if d <= 0 {
		return
	}
	s.errMu.Lock()
	s.probeEvery = d
	s.errMu.Unlock()
}

// startProbeLoopLocked (errMu held) ensures exactly one re-probe
// goroutine runs while the store is degraded.
func (s *Store) startProbeLoopLocked() {
	if s.probing {
		return
	}
	s.probing = true
	go s.probeLoop()
}

// probeLoop retries the write path until the store heals or closes.
func (s *Store) probeLoop() {
	for {
		s.errMu.Lock()
		every := s.probeEvery
		s.errMu.Unlock()
		select {
		case <-s.probeStop:
			s.errMu.Lock()
			s.probing = false
			s.errMu.Unlock()
			return
		case <-time.After(every):
		}
		s.Probe()
		s.errMu.Lock()
		if s.lastErr == nil {
			s.probing = false
			s.errMu.Unlock()
			return
		}
		s.errMu.Unlock()
	}
}

// Probe attempts to restore a degraded store's write path right now:
// it reopens the manifest append handle if it was lost (a failed
// compaction leaves it nil), fsyncs it, and round-trips a scratch file
// through the objects directory. Success clears the degraded state —
// manifest appends resume and the recovery shows up in
// Stats.RecoveredWrites. Healthy stores return true immediately; the
// background loop calls this on the probe interval, and tests may call
// it directly for a deterministic re-probe.
func (s *Store) Probe() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.Healthy() == nil {
		return true
	}
	s.probes.Add(1)
	if s.man == nil {
		f, err := openAppend(s.manPath)
		if err != nil {
			s.setErr(fmt.Errorf("manifest open: %w", err))
			return false
		}
		s.man = f
	}
	if err := fsSync(s.man); err != nil {
		s.setErr(fmt.Errorf("manifest fsync: %w", err))
		return false
	}
	f, err := fsCreateTemp(s.objDir, "probe-*.tmp")
	if err != nil {
		s.setErr(fmt.Errorf("object dir probe: %w", err))
		return false
	}
	tmp := f.Name()
	_, werr := fsWrite(f, []byte("probe"))
	if werr == nil {
		werr = fsSync(f)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	os.Remove(tmp)
	if werr != nil {
		s.setErr(fmt.Errorf("object dir probe: %w", werr))
		return false
	}
	s.clearErr()
	return true
}

// Close flushes and releases the store: binding references drop (so
// mappings unmap as their last pinned readers finish), the manifest
// and lock handles close. Object files stay on disk — they are the
// point. Close is idempotent; reads after Close miss, puts fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	close(s.probeStop) // stop the degraded re-probe loop, if running
	for _, o := range s.byKey {
		n := int64(len(o.bound))
		o.bound = nil
		if o.refs.Add(-n) == 0 {
			if o.mapped {
				unmapBytes(o.data)
				o.mapped = false
			}
			o.data = nil
		}
	}
	s.byName = map[string]nameBind{}
	s.byKey = map[cache.Key]*object{}
	s.bytes = 0
	var err error
	if s.man != nil {
		err = s.man.Sync()
		if cerr := s.man.Close(); err == nil {
			err = cerr
		}
		s.man = nil
	}
	if s.lock != nil {
		s.lock.Close()
		s.lock = nil
	}
	return err
}
