package store

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"compaqt/internal/cache"
)

// FuzzStoreOpen feeds hostile on-disk state to Open: arbitrary
// manifest bytes plus an arbitrary object file under a digest-shaped
// name. Open must never panic, never map or allocate beyond the actual
// file sizes (the manifest's size field is capped and cross-checked
// against the file), and always leave a store that serves whatever it
// did recover and closes cleanly.
func FuzzStoreOpen(f *testing.F) {
	// Seeds: a valid single-bind manifest (with and without its object
	// present and intact), plus classic corruptions, in the unversioned
	// record format directories written before versions hold; then the
	// versioned record.
	obj := []byte("CPQT-not-really-wire-bytes")
	var key cache.Key
	key[0] = 7
	good := bindRec{key: key, sum: sumBytes(obj), size: int64(len(obj))}
	valid := append([]byte(manifestMagic), encodeRecord(opBindV0, "lib", good)...)

	f.Add(valid, obj)
	f.Add(valid, []byte("wrong content"))        // sum mismatch
	f.Add(valid, []byte{})                       // empty object file
	f.Add(valid[:len(valid)-5], obj)             // torn record
	f.Add([]byte(manifestMagic), obj)            // empty log
	f.Add([]byte("NOTMAGIC"), obj)               // wrong magic
	f.Add([]byte{}, obj)                         // empty manifest
	f.Add(bytes.Repeat([]byte{0xff}, 4096), obj) // garbage
	huge := bindRec{key: key, sum: good.sum, size: 1 << 40}
	f.Add(append([]byte(manifestMagic), encodeRecord(opBindV0, "lib", huge)...), obj)
	unb := append([]byte(nil), valid...)
	f.Add(append(unb, encodeRecord(opUnbind, "lib", bindRec{})...), obj)

	versioned := good
	versioned.version = 1 << 60
	validV := append([]byte(manifestMagic), encodeRecord(opBind, "lib", versioned)...)
	f.Add(validV, obj)
	f.Add(validV[:len(validV)-3], obj) // torn inside the version field
	// An unversioned bind raised by a versioned one of the same bytes,
	// then superseded by a record for other bytes.
	raised := append(append([]byte(nil), valid...), encodeRecord(opBind, "lib", versioned)...)
	f.Add(raised, obj)
	other := versioned
	other.sum[0] ^= 1
	f.Add(append(raised, encodeRecord(opBind, "lib", other)...), obj)

	f.Fuzz(func(t *testing.T, manifest, object []byte) {
		dir := t.TempDir()
		objDir := filepath.Join(dir, "objects")
		if err := os.MkdirAll(objDir, 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), manifest, 0o666); err != nil {
			t.Fatal(err)
		}
		name := hex.EncodeToString(key[:]) + objectExt
		if err := os.WriteFile(filepath.Join(objDir, name), object, 0o666); err != nil {
			t.Fatal(err)
		}

		s, err := Open(dir, 0)
		if err != nil {
			return // refusing hostile state outright is fine
		}
		// Whatever survived the scan must actually serve, and what it
		// serves must be the object's verified bytes.
		for _, n := range s.Names() {
			blob, ok := s.Get(n)
			if !ok {
				t.Fatalf("Names() lists %q but Get misses", n)
			}
			if int64(len(blob.Bytes())) != blob.Size() {
				t.Fatalf("%q: %d mapped bytes vs size %d", n, len(blob.Bytes()), blob.Size())
			}
			if sumBytes(blob.Bytes()) != good.sum && !bytes.Equal(blob.Bytes(), object) {
				t.Fatalf("%q: recovered bytes match neither the seed object nor the fuzzed one", n)
			}
			blob.Release()
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close after fuzzed open: %v", err)
		}
	})
}
