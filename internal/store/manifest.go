package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"compaqt/internal/cache"
)

// The manifest is the store's name index: an append-only log of
// bind/unbind records mapping image names to object digests and
// binding versions. Replaying it (last record per name wins)
// reconstructs the live bindings on warm restart; the object files themselves are self-verifying via the
// recorded content sum. Every record carries a CRC so a torn append —
// the crash case — truncates cleanly at the last whole record instead
// of poisoning the scan, and hostile bytes can at worst drop bindings,
// never crash the open or inflate an allocation.
//
// Layout: an 8-byte magic header, then records of
//
//	crc  uint32  // IEEE CRC32 of everything after this field
//	op   uint8   // 3 = bind, 2 = unbind; 1 = bind without a version
//	nlen uint16  // name length, capped at MaxNameLen
//	name [nlen]byte
//	-- bind records only --
//	key  [32]byte // content digest (DigestImage), the object address
//	sum  [32]byte // sha256 of the wire bytes, verified on restart
//	size uint64   // wire length, cross-checked against the file
//	ver  uint64   // binding version (op 3 only)
//
// all little-endian. Op 1 is the bind record of directories written
// before bindings carried versions: it reads as version 0, which any
// versioned write supersedes. The log is compacted (rewritten with
// only the live binds, temp-file + rename) at open and when deletes
// accumulate.
const manifestMagic = "CPQTCAS1"

const (
	opBindV0 = 1
	opUnbind = 2
	opBind   = 3
	// bindTail is the fixed-width payload after a bind record's name,
	// and bindTailV0 that of an unversioned one.
	bindTailV0 = 32 + 32 + 8
	bindTail   = bindTailV0 + 8
)

// bindRec is one live name binding as recorded in the manifest.
type bindRec struct {
	key     cache.Key
	sum     cache.Key
	size    int64
	version uint64
}

// scanManifest replays the log at path into the final name -> binding
// map. It never fails hard: an unreadable or unrecognizable file scans
// as empty (cold start), and any malformed, truncated or CRC-mismatched
// record ends the scan at the last good one — the recovery semantics of
// a torn append.
func scanManifest(path string) map[string]bindRec {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var hdr [len(manifestMagic)]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil || string(hdr[:]) != manifestMagic {
		return nil
	}
	le := binary.LittleEndian
	binds := map[string]bindRec{}
	body := make([]byte, 0, 3+MaxNameLen+bindTail)
	for {
		var pre [7]byte // crc, op, nlen
		if _, err := io.ReadFull(br, pre[:]); err != nil {
			return binds
		}
		crc := le.Uint32(pre[0:4])
		op := pre[4]
		nlen := int(le.Uint16(pre[5:7]))
		if nlen > MaxNameLen {
			return binds
		}
		n := 3 + nlen
		switch op {
		case opBind:
			n += bindTail
		case opBindV0:
			n += bindTailV0
		case opUnbind:
		default:
			return binds
		}
		body = body[:n]
		copy(body[0:3], pre[4:7])
		if _, err := io.ReadFull(br, body[3:]); err != nil {
			return binds
		}
		if crc32.ChecksumIEEE(body) != crc {
			return binds
		}
		name := string(body[3 : 3+nlen])
		if op == opUnbind {
			delete(binds, name)
			continue
		}
		rest := body[3+nlen:]
		var r bindRec
		copy(r.key[:], rest[0:32])
		copy(r.sum[:], rest[32:64])
		r.size = int64(le.Uint64(rest[64:72]))
		if op == opBind {
			r.version = le.Uint64(rest[72:80])
		}
		if r.size < 0 || r.size > MaxObjectBytes {
			return binds
		}
		binds[name] = r
	}
}

// encodeRecord builds one framed record (crc prefix included).
func encodeRecord(op byte, name string, r bindRec) []byte {
	le := binary.LittleEndian
	body := make([]byte, 0, 3+len(name)+bindTail)
	body = append(body, op)
	body = le.AppendUint16(body, uint16(len(name)))
	body = append(body, name...)
	if op != opUnbind {
		body = append(body, r.key[:]...)
		body = append(body, r.sum[:]...)
		body = le.AppendUint64(body, uint64(r.size))
	}
	if op == opBind {
		body = le.AppendUint64(body, r.version)
	}
	rec := make([]byte, 0, 4+len(body))
	rec = le.AppendUint32(rec, crc32.ChecksumIEEE(body))
	return append(rec, body...)
}

// appendRecord appends one record, durably when sync is set: the write
// is then followed by an fsync so a published binding survives the
// very next crash.
func appendRecord(f *os.File, op byte, name string, r bindRec, sync bool) error {
	if f == nil {
		return fmt.Errorf("store: manifest is not writable")
	}
	if _, err := fsWrite(f, encodeRecord(op, name, r)); err != nil || !sync {
		return err
	}
	return fsSync(f)
}

// namedBind pairs a name with its binding for compaction.
type namedBind struct {
	name string
	rec  bindRec
}

// writeCompactManifest atomically replaces the manifest at path with a
// fresh log holding exactly the given binds: temp file in the same
// directory, one fsync, rename over the old log.
func writeCompactManifest(path string, binds []namedBind) error {
	f, err := fsCreateTemp(filepath.Dir(path), "manifest-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.WriteString(manifestMagic)
	for _, b := range binds {
		if err != nil {
			break
		}
		_, err = fsWrite(f, encodeRecord(opBind, b.name, b.rec))
	}
	if err == nil {
		err = fsSync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsRename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// openAppend opens (creating if needed) the manifest for durable
// appends, writing the magic header into a fresh or empty log.
func openAppend(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() == 0 {
		if _, err = f.WriteString(manifestMagic); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}
