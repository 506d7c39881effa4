package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"compaqt/internal/compress"
	"compaqt/internal/rle"
)

// Size returns the exact number of bytes WriteTo and AppendTo produce
// for the image. It lets callers pre-size destination buffers so the
// whole serialization runs without a single reallocation.
func (img *Image) Size() int {
	n := len(magic) + 2 + 2 // magic, version, window
	n += 2 + len(img.Machine)
	n += 4 // entry count
	for i := range img.Entries {
		e := &img.Entries[i]
		n += 2 + len(e.Key)
		n += 2 + len(e.Gate)
		n += 4 + 4 // qubit, target
		n += 8 + 4 // sample rate, samples
		n += 4 + 4*len(e.Compressed.I.Stream)
		n += 4 + 4*len(e.Compressed.Q.Stream)
	}
	return n
}

// checkSerializable rejects images the wire format cannot represent:
// it stores only the int-DCT-W word stream of the plain window layout
// (the representation the hardware consumes), so other variants error
// instead of silently dropping their side data, and overlapped entries
// error instead of reading back as the plain layout.
func (img *Image) checkSerializable() error {
	for i := range img.Entries {
		c := img.Entries[i].Compressed
		if c.Variant != compress.IntDCTW {
			return fmt.Errorf("core: image format stores int-DCT-W only; entry %q is %v",
				img.Entries[i].Key, c.Variant)
		}
		if c.Overlapped {
			return fmt.Errorf("core: image format stores non-overlapping windows only; entry %q is overlapped",
				img.Entries[i].Key)
		}
		if len(img.Entries[i].Key) > math.MaxUint16 || len(img.Entries[i].Gate) > math.MaxUint16 {
			return fmt.Errorf("core: string too long")
		}
	}
	if len(img.Machine) > math.MaxUint16 {
		return fmt.Errorf("core: string too long")
	}
	return nil
}

// AppendTo appends the image's serialized wire format to dst and
// returns the extended slice. With a destination pre-sized via Size it
// performs no allocations; the bytes are identical to WriteTo's.
func (img *Image) AppendTo(dst []byte) ([]byte, error) {
	if err := img.checkSerializable(); err != nil {
		return dst, err
	}
	le := binary.LittleEndian
	if need := img.Size(); cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, magic...)
	dst = le.AppendUint16(dst, version)
	dst = le.AppendUint16(dst, uint16(img.WindowSize))
	dst = appendString(dst, img.Machine)
	dst = le.AppendUint32(dst, uint32(len(img.Entries)))
	for i := range img.Entries {
		e := &img.Entries[i]
		c := e.Compressed
		dst = appendString(dst, e.Key)
		dst = appendString(dst, e.Gate)
		dst = le.AppendUint32(dst, uint32(int32(e.Qubit)))
		dst = le.AppendUint32(dst, uint32(int32(e.Target)))
		dst = le.AppendUint64(dst, math.Float64bits(c.SampleRate))
		dst = le.AppendUint32(dst, uint32(c.Samples))
		for _, ch := range []*compress.Channel{&c.I, &c.Q} {
			dst = le.AppendUint32(dst, uint32(len(ch.Stream)))
			for _, word := range ch.Stream {
				dst = le.AppendUint32(dst, uint32(word))
			}
		}
	}
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// writeBufPool recycles serialization buffers across WriteTo calls;
// buffers keep their capacity, so a steady stream of same-shaped
// images serializes allocation-free.
var writeBufPool = sync.Pool{New: func() any { return new([]byte) }}

// WriteTo serializes the image. The wire format stores only the
// int-DCT-W word stream (the representation the hardware consumes);
// images compiled with other variants are rejected rather than
// silently dropping their side data. The image is staged in a pooled
// buffer sized by Size and written with a single w.Write call.
func (img *Image) WriteTo(w io.Writer) (int64, error) {
	bp := writeBufPool.Get().(*[]byte)
	defer func() {
		writeBufPool.Put(bp)
	}()
	buf, err := img.AppendTo((*bp)[:0])
	*bp = buf[:0]
	if err != nil {
		return 0, err
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ValidateImageBytes walks a serialized image in place and returns the
// length of the image at the front of b. It is the wire format's one
// set of checks: every length field is validated against the bytes
// actually present, the window against the engine's sizes, and the
// entry, sample and word counts against their caps. It allocates
// nothing, so paths that only keep and forward wire bytes validate
// without building an Image. Bytes after the image are not examined;
// b[:n] is exactly what AppendTo writes for the image DecodeImageBytes
// builds from b.
func ValidateImageBytes(b []byte) (int, error) {
	d := byteDecoder{b: b}
	m, err := d.bytes(4)
	if err != nil {
		return 0, err
	}
	if string(m) != magic {
		return 0, fmt.Errorf("core: bad magic %q", m)
	}
	ver, err := d.uint16()
	if err != nil {
		return 0, err
	}
	if ver != version {
		return 0, fmt.Errorf("core: unsupported image version %d", ver)
	}
	ws, err := d.uint16()
	if err != nil {
		return 0, err
	}
	switch ws {
	case 4, 8, 16, 32:
		// The wire format stores int-DCT-W images only, so every valid
		// image carries one of the engine's window sizes. Anything else
		// is hostile or corrupt, and must be rejected before the
		// window-walking metadata rebuild: ws=0 would never advance it,
		// and ws>32 would overflow the decoder's fixed window buffers.
	default:
		return 0, fmt.Errorf("core: invalid window size %d", ws)
	}
	if _, err := d.str(); err != nil { // machine
		return 0, err
	}
	count, err := d.uint32()
	if err != nil {
		return 0, err
	}
	if count > maxImageEntries {
		return 0, fmt.Errorf("core: implausible entry count %d", count)
	}
	// A window word reconstructs at most ws samples and a repeat
	// codeword at most rle.MaxRun.
	maxPerWord := uint64(max(rle.MaxRun, int(ws)))
	for i := uint32(0); i < count; i++ {
		if _, err := d.str(); err != nil { // key
			return 0, err
		}
		if _, err := d.str(); err != nil { // gate
			return 0, err
		}
		if _, err := d.bytes(4 + 4 + 8); err != nil { // qubit, target, sample rate
			return 0, err
		}
		samples, err := d.uint32()
		if err != nil {
			return 0, err
		}
		if samples > maxImageSamples {
			return 0, fmt.Errorf("core: implausible sample count %d", samples)
		}
		for range 2 { // I, Q
			wc, err := d.uint32()
			if err != nil {
				return 0, err
			}
			if wc > maxStreamWords {
				return 0, fmt.Errorf("core: implausible stream length %d", wc)
			}
			// A channel that claims more samples than its words could
			// ever cover is malformed. The check also keeps the declared
			// sample count proportional to the bytes actually present.
			// The product is 64-bit: wc*maxPerWord can reach 2^36, which
			// would wrap a 32-bit int and mis-reject valid images.
			if uint64(samples) > uint64(wc)*maxPerWord {
				return 0, fmt.Errorf("core: %d samples cannot decode from %d stream words", samples, wc)
			}
			if _, err := d.bytes(4 * int(wc)); err != nil {
				return 0, err
			}
		}
	}
	return d.off, nil
}

// DecodeImageBytes deserializes an image from its serialized form, the
// format's one decoder. ValidateImageBytes checks the bytes first; only
// then is the image built, reading fields straight from b with one
// exact-size allocation per string and word stream — every count is
// already known to be backed by bytes present.
func DecodeImageBytes(b []byte) (*Image, error) {
	n, err := ValidateImageBytes(b)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	d := byteDecoder{b: b[:n], off: len(magic) + 2} // past magic and version
	ws := int(le.Uint16(d.next(2)))
	img := &Image{WindowSize: ws, Machine: string(d.nextStr())}
	if count := le.Uint32(d.next(4)); count > 0 {
		img.Entries = make([]Entry, count)
	}
	for i := range img.Entries {
		e := &img.Entries[i]
		e.Key = string(d.nextStr())
		e.Gate = string(d.nextStr())
		e.Qubit = int(int32(le.Uint32(d.next(4))))
		e.Target = int(int32(le.Uint32(d.next(4))))
		c := &compress.Compressed{
			Name:       e.Key,
			Variant:    compress.IntDCTW,
			WindowSize: ws,
		}
		c.SampleRate = math.Float64frombits(le.Uint64(d.next(8)))
		c.Samples = int(le.Uint32(d.next(4)))
		for _, ch := range []*compress.Channel{&c.I, &c.Q} {
			raw := d.next(4 * int(le.Uint32(d.next(4))))
			ch.Stream = make([]rle.Word, len(raw)/4)
			for j := range ch.Stream {
				ch.Stream[j] = rle.Word(le.Uint32(raw[4*j:]))
			}
			rebuildChannelMeta(ch, ws)
		}
		e.Compressed = c
	}
	return img, nil
}

// byteDecoder walks a serialized image in place. Its accessors return
// subslices of the input and never allocate. The checked ones (bytes,
// uint16, uint32, str) are ValidateImageBytes'; next and nextStr read
// fields the walk has already shown to be present.
type byteDecoder struct {
	b   []byte
	off int
}

var errTruncated = fmt.Errorf("core: truncated image: %w", io.ErrUnexpectedEOF)

func (d *byteDecoder) next(n int) []byte {
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *byteDecoder) nextStr() []byte {
	return d.next(int(binary.LittleEndian.Uint16(d.next(2))))
}

func (d *byteDecoder) bytes(n int) ([]byte, error) {
	if len(d.b)-d.off < n {
		return nil, errTruncated
	}
	return d.next(n), nil
}

func (d *byteDecoder) uint16() (uint16, error) {
	s, err := d.bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(s), nil
}

func (d *byteDecoder) uint32() (uint32, error) {
	s, err := d.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(s), nil
}

func (d *byteDecoder) str() ([]byte, error) {
	n, err := d.uint16()
	if err != nil {
		return nil, err
	}
	return d.bytes(int(n))
}
