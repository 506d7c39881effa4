package store

import (
	"encoding/binary"
	"math"

	"compaqt/internal/cache"
	"compaqt/internal/core"
)

// DigestImage fingerprints everything an image serializes to: the
// header fields plus every entry's metadata and compressed word
// streams. Two images with equal digests produce byte-identical wire
// forms, so the digest is both the store's content address and the
// identity the cluster's digest listings and repair compare. It runs
// on the pooled hash state from internal/cache: one pass over the
// compressed streams, no allocations.
func DigestImage(img *core.Image) cache.Key {
	d := cache.NewHasher()
	d.WriteString("cpqt-wire/v1")
	d.WriteString(img.Machine)
	d.WriteUint64(uint64(img.WindowSize))
	d.WriteUint64(uint64(len(img.Entries)))
	for i := range img.Entries {
		e := &img.Entries[i]
		c := e.Compressed
		d.WriteString(e.Key)
		d.WriteString(e.Gate)
		d.WriteUint64(uint64(int64(e.Qubit)))
		d.WriteUint64(uint64(int64(e.Target)))
		d.WriteUint64(math.Float64bits(c.SampleRate))
		d.WriteUint64(uint64(c.Samples))
		d.WriteWords(c.I.Stream)
		d.WriteWords(c.Q.Stream)
	}
	k := d.Key()
	d.Release()
	return k
}

// DigestWire is DigestImage computed straight from an image's wire
// bytes, without decoding them: it hashes the same fields in the same
// order (a word stream's wire bytes are exactly what WriteWords
// hashes), so DigestWire(b) == DigestImage(img) for every img that
// decodes from b. b must be exactly an image core.ValidateImageBytes
// accepted.
func DigestWire(b []byte) cache.Key {
	le := binary.LittleEndian
	off := 6 // magic, version
	next := func(n int) []byte {
		s := b[off : off+n]
		off += n
		return s
	}
	str := func() []byte { return next(int(le.Uint16(next(2)))) }
	i32 := func() uint64 { return uint64(int64(int32(le.Uint32(next(4))))) }
	d := cache.NewHasher()
	d.WriteString("cpqt-wire/v1")
	ws := le.Uint16(next(2))
	d.WriteBytes(str()) // machine
	d.WriteUint64(uint64(ws))
	count := le.Uint32(next(4))
	d.WriteUint64(uint64(count))
	// Per entry: key, gate, qubit, target, sample-rate bits, samples,
	// then the I and Q word streams.
	for range count {
		d.WriteBytes(str())
		d.WriteBytes(str())
		d.WriteUint64(i32())
		d.WriteUint64(i32())
		d.WriteUint64(le.Uint64(next(8)))
		d.WriteUint64(uint64(le.Uint32(next(4))))
		for range 2 {
			d.WriteWordBytes(next(4 * int(le.Uint32(next(4)))))
		}
	}
	k := d.Key()
	d.Release()
	return k
}

// sumBytes is the integrity digest of an object's wire bytes as stored
// in the manifest; the startup scan recomputes it over the mapped file
// to reject torn or corrupted publishes.
func sumBytes(b []byte) cache.Key {
	d := cache.NewHasher()
	d.WriteBytes(b)
	k := d.Key()
	d.Release()
	return k
}
