package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sync"

	"compaqt/internal/rle"
	"compaqt/internal/wave"
)

// Hasher builds content digests (Keys) without per-digest heap
// allocations: the sha256 state, the output array, and the staging
// scratch all live in one pooled value. Obtain one with NewHasher,
// feed it with the Write* methods, read the digest with Key, and hand
// it back with Release. A Hasher is not safe for concurrent use; the
// pool makes acquiring one per goroutine cheap.
type Hasher struct {
	h   hash.Hash
	sum [sha256.Size]byte
	// buf stages fixed-width encodings and string bytes before they hit
	// the hash: sha256's Write has no per-call allocation, but building
	// the input anywhere else would. 2 KiB keeps typical waveform
	// channels to a handful of Write calls.
	buf [2048]byte
}

var hasherPool = sync.Pool{New: func() any { return &Hasher{h: sha256.New()} }}

// NewHasher returns a reset Hasher from the pool.
func NewHasher() *Hasher {
	d := hasherPool.Get().(*Hasher)
	d.h.Reset()
	return d
}

// Release returns the Hasher to the pool. The caller must not use it
// (or any Key it produced by reference) afterwards.
func (d *Hasher) Release() { hasherPool.Put(d) }

// WriteUint64 hashes v in little-endian order.
func (d *Hasher) WriteUint64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:8], v)
	d.h.Write(d.buf[:8])
}

// WriteString hashes s length-prefixed, so adjacent fields cannot
// alias across boundaries.
func (d *Hasher) WriteString(s string) {
	d.WriteUint64(uint64(len(s)))
	for len(s) > 0 {
		n := copy(d.buf[:], s)
		d.h.Write(d.buf[:n])
		s = s[n:]
	}
}

// WriteBytes hashes raw bytes, length-prefixed.
func (d *Hasher) WriteBytes(b []byte) {
	d.WriteUint64(uint64(len(b)))
	d.h.Write(b)
}

// WriteInt16s hashes one int16 channel, length-prefixed.
func (d *Hasher) WriteInt16s(samples []int16) {
	d.WriteUint64(uint64(len(samples)))
	for len(samples) > 0 {
		n := len(samples)
		if n > len(d.buf)/2 {
			n = len(d.buf) / 2
		}
		for i, s := range samples[:n] {
			binary.LittleEndian.PutUint16(d.buf[2*i:], uint16(s))
		}
		d.h.Write(d.buf[:2*n])
		samples = samples[n:]
	}
}

// WriteWords hashes one compressed word stream, length-prefixed.
func (d *Hasher) WriteWords(words []rle.Word) {
	d.WriteUint64(uint64(len(words)))
	for len(words) > 0 {
		n := len(words)
		if n > len(d.buf)/4 {
			n = len(d.buf) / 4
		}
		for i, w := range words[:n] {
			binary.LittleEndian.PutUint32(d.buf[4*i:], uint32(w))
		}
		d.h.Write(d.buf[:4*n])
		words = words[n:]
	}
}

// WriteWordBytes hashes a word stream given as its little-endian wire
// bytes (4 per word): the same input WriteWords hashes for the decoded
// words, without decoding them.
func (d *Hasher) WriteWordBytes(raw []byte) {
	d.WriteUint64(uint64(len(raw) / 4))
	d.h.Write(raw)
}

// Key finalizes the digest. The Hasher may keep being written to and
// finalized again (the digest then covers everything written so far).
func (d *Hasher) Key() Key {
	d.h.Sum(d.sum[:0])
	return d.sum
}

// DigestWaveform hashes everything that determines a pulse's encoding:
// the codec fingerprint (identity plus parameters, see
// codec.Fingerprinter), the fidelity target driving Algorithm 1 (0 when
// fixed-threshold), and the waveform content itself (sample rate and
// both quantized channels). The pulse name is deliberately excluded —
// identical content under different gate names shares one entry, and
// the Service restores the name on a hit. The digest runs on pooled
// hash state: steady-state compile traffic computes keys without
// touching the allocator.
func DigestWaveform(fingerprint string, targetMSE float64, f *wave.Fixed) Key {
	d := NewHasher()
	d.WriteString(fingerprint)
	d.WriteUint64(math.Float64bits(targetMSE))
	d.WriteUint64(math.Float64bits(f.SampleRate))
	d.WriteInt16s(f.I)
	d.WriteInt16s(f.Q)
	k := d.Key()
	d.Release()
	return k
}
