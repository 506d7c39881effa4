package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sync"
)

// Hinted handoff: a replicated publish that fails against an
// unreachable replica is not forgotten — the (peer, name, wire bytes)
// triple is appended to a small hint log and replayed when gossip or a
// probe marks the peer alive again. The log reuses the store
// manifest's framing idiom: a magic header, then CRC-prefixed records,
// so a torn tail (the crash case) truncates cleanly at the last whole
// record and hostile bytes can at worst drop hints, never crash the
// open. Hints are bounded to 16 MiB; beyond it the oldest are
// dropped (and counted) — the anti-entropy repair loop is the backstop
// for anything the log could not hold.
//
// Layout: an 8-byte magic, then records of
//
//	crc  uint32  // IEEE CRC32 of everything after this field
//	plen uint16  // peer URL length
//	peer [plen]byte
//	nlen uint16  // image name length
//	name [nlen]byte
//	wlen uint32  // wire byte length
//	wire [wlen]byte
//
// all little-endian.
const hintMagic = "CPQTHNT1"

const (
	// maxHintRecordBytes bounds one hint's wire payload; larger images
	// are left to anti-entropy repair rather than doubling a big publish
	// on disk.
	maxHintRecordBytes = 64 << 20
	// defaultMaxHintBytes bounds the whole log; openHintLog selects it
	// for maxBytes <= 0, which is what a Cluster passes.
	defaultMaxHintBytes = 16 << 20
)

// hint is one deferred publish.
type hint struct {
	peer string
	name string
	wire []byte
	// seq tells apart successive versions of the (peer, name) hint:
	// add gives a replacement a fresh one, so delivering an older
	// version never removes the newer one queued meanwhile.
	seq uint64
}

// hintLog is the bounded hint store: an in-memory queue mirrored to an
// append-only on-disk log when a path is configured ("" keeps hints in
// memory only — still replayed, just not crash-durable).
type hintLog struct {
	mu       sync.Mutex
	path     string
	hints    []hint
	bytes    int64
	maxBytes int64
	dropped  uint64
	// seq numbers hint versions, unique within the log (hint.seq).
	seq uint64
	// writeErrors counts failed rewrites of the file at path.
	writeErrors uint64
}

// openHintLog loads (or creates) the log at path, replaying whatever
// scans cleanly. It never fails hard: an unusable file degrades to a
// memory-only log.
func openHintLog(path string, maxBytes int64) *hintLog {
	if maxBytes <= 0 {
		maxBytes = defaultMaxHintBytes
	}
	l := &hintLog{path: path, maxBytes: maxBytes}
	if path == "" {
		return l
	}
	l.hints = scanHints(path)
	for i := range l.hints {
		l.seq++
		l.hints[i].seq = l.seq
		l.bytes += int64(len(l.hints[i].wire))
	}
	// Rewrite compactly (drops any torn tail).
	l.syncLocked()
	return l
}

// scanHints replays the log at path; any malformed, truncated or
// CRC-mismatched record ends the scan at the last good one.
func scanHints(path string) []hint {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var hdr [len(hintMagic)]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil || string(hdr[:]) != hintMagic {
		return nil
	}
	le := binary.LittleEndian
	var out []hint
	for {
		var pre [6]byte // crc, plen
		if _, err := io.ReadFull(br, pre[:]); err != nil {
			return out
		}
		crc := le.Uint32(pre[0:4])
		plen := int(le.Uint16(pre[4:6]))
		var mid [2]byte
		body := make([]byte, 2+plen+2)
		copy(body[0:2], pre[4:6])
		if _, err := io.ReadFull(br, body[2:]); err != nil {
			return out
		}
		copy(mid[:], body[2+plen:])
		nlen := int(le.Uint16(mid[:]))
		body = append(body, make([]byte, nlen+4)...)
		if _, err := io.ReadFull(br, body[2+plen+2:]); err != nil {
			return out
		}
		wlen := int64(le.Uint32(body[2+plen+2+nlen:]))
		if wlen < 0 || wlen > maxHintRecordBytes {
			return out
		}
		body = append(body, make([]byte, wlen)...)
		if _, err := io.ReadFull(br, body[2+plen+2+nlen+4:]); err != nil {
			return out
		}
		if crc32.ChecksumIEEE(body) != crc {
			return out
		}
		h := hint{
			peer: string(body[2 : 2+plen]),
			name: string(body[2+plen+2 : 2+plen+2+nlen]),
			wire: body[2+plen+2+nlen+4:],
		}
		out = append(out, h)
	}
}

// encodeHint frames one record (crc prefix included).
func encodeHint(h hint) []byte {
	le := binary.LittleEndian
	body := make([]byte, 0, 2+len(h.peer)+2+len(h.name)+4+len(h.wire))
	body = le.AppendUint16(body, uint16(len(h.peer)))
	body = append(body, h.peer...)
	body = le.AppendUint16(body, uint16(len(h.name)))
	body = append(body, h.name...)
	body = le.AppendUint32(body, uint32(len(h.wire)))
	body = append(body, h.wire...)
	rec := make([]byte, 0, 4+len(body))
	rec = le.AppendUint32(rec, crc32.ChecksumIEEE(body))
	return append(rec, body...)
}

// add records one deferred publish, replacing any pending hint for the
// same (peer, name) — the latest wire bytes win — and evicting the
// oldest hints past the byte budget. Returns how many were dropped to
// make room.
func (l *hintLog) add(peer, name string, wire []byte) (dropped uint64) {
	if int64(len(wire)) > maxHintRecordBytes {
		l.mu.Lock()
		l.dropped++
		l.mu.Unlock()
		return 1
	}
	w := append([]byte(nil), wire...) // callers reuse their buffers
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	replaced := false
	for i := range l.hints {
		if l.hints[i].peer == peer && l.hints[i].name == name {
			l.bytes += int64(len(w)) - int64(len(l.hints[i].wire))
			l.hints[i].wire = w
			l.hints[i].seq = l.seq
			replaced = true
			break
		}
	}
	if !replaced {
		l.hints = append(l.hints, hint{peer: peer, name: name, wire: w, seq: l.seq})
		l.bytes += int64(len(w))
	}
	for len(l.hints) > 1 && l.bytes > l.maxBytes {
		l.bytes -= int64(len(l.hints[0].wire))
		l.hints = l.hints[1:]
		l.dropped++
		dropped++
	}
	l.syncLocked()
	return dropped
}

// take snapshots the pending hints for peer.
func (l *hintLog) take(peer string) []hint {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []hint
	for _, h := range l.hints {
		if h.peer == peer {
			out = append(out, h)
		}
	}
	return out
}

// remove deletes one delivered hint, as take returned it, and compacts
// the log. A hint replaced since take (a newer publish of the same
// name to the same peer) stays queued.
func (l *hintLog) remove(h hint) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.hints {
		if l.hints[i].seq == h.seq {
			l.bytes -= int64(len(l.hints[i].wire))
			l.hints = append(l.hints[:i], l.hints[i+1:]...)
			l.syncLocked()
			return
		}
	}
}

// pending reports the queued hint count (and bytes).
func (l *hintLog) pending() (n int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.hints), l.bytes
}

// failedWrites reports how many rewrites of the file failed.
func (l *hintLog) failedWrites() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeErrors
}

// syncLocked mirrors the queue to the file. A failed rewrite leaves
// the file out of step with memory, and a restart would replay the
// file: hints already delivered included, which can overwrite a newer
// binding on their peer. So a failure is counted and logged, the
// stale file is removed if it can be, and the log keeps its hints in
// memory only from then on (so it fails, and logs, at most once).
// Callers hold l.mu.
func (l *hintLog) syncLocked() {
	err := l.rewriteLocked()
	if err == nil {
		return
	}
	l.writeErrors++
	stale := "removed the stale file"
	if rerr := os.Remove(l.path); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
		stale = "could not remove the stale file: " + rerr.Error()
	}
	log.Printf("cluster: hint log %s: %v; keeping hints in memory only (%s)", l.path, err, stale)
	l.path = ""
}

// rewriteLocked atomically replaces the on-disk log with the current
// queue: temp file in the same directory, fsync, rename — the
// manifest-compaction idiom. The queue is small by construction
// (defaultMaxHintBytes), so rewriting per mutation keeps the file exactly in
// step with memory without a separate compaction trigger. Callers hold
// l.mu. Memory-only logs are a no-op.
func (l *hintLog) rewriteLocked() error {
	if l.path == "" {
		return nil
	}
	f, err := os.CreateTemp(filepath.Dir(l.path), "hints-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.WriteString(hintMagic)
	for _, h := range l.hints {
		if err != nil {
			break
		}
		_, err = f.Write(encodeHint(h))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
