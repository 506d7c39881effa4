// Fuzzing for the wire-format reader: ReadImage consumes bytes that in
// production arrive over the network, so it must reject hostile input
// with an error — never a panic, and never an allocation driven by a
// declared length instead of by bytes actually present.
package core

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"

	"compaqt/internal/device"
	"compaqt/internal/wave"
)

// seedImage compiles a tiny two-pulse library into wire bytes.
func seedImage(tb testing.TB, ws int) []byte {
	tb.Helper()
	mk := func(name string, fill func(i int) float64) *device.Pulse {
		const n = 32
		iCh := make([]float64, n)
		qCh := make([]float64, n)
		for i := range iCh {
			iCh[i] = fill(i)
			qCh[i] = -fill(i) / 2
		}
		return &device.Pulse{Gate: name, Qubit: 0, Target: -1, Waveform: &wave.Waveform{
			Name: name + "_q0", SampleRate: 4.5e9, I: iCh, Q: qCh,
		}}
	}
	pulses := []*device.Pulse{
		mk("X", func(i int) float64 { return float64(i%16) / 16 }),
		mk("SX", func(i int) float64 { return 0.25 }),
	}
	c := &Compiler{WindowSize: ws}
	img, err := c.CompilePulses("seed", pulses)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// nanRateImage is seedImage with a NaN sample rate on its first entry:
// valid bytes whose decode is not reflect.DeepEqual to itself.
func nanRateImage(tb testing.TB) []byte {
	tb.Helper()
	img, err := DecodeImageBytes(seedImage(tb, 16))
	if err != nil {
		tb.Fatal(err)
	}
	img.Entries[0].Compressed.SampleRate = math.NaN()
	wire, err := img.AppendTo(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return wire
}

// sameImage is reflect.DeepEqual for decoded images, except that sample
// rates compare by their bits: a NaN rate decodes from valid bytes, and
// DeepEqual never finds NaN equal to itself.
func sameImage(a, b *Image) bool {
	return reflect.DeepEqual(withRateBits(a), withRateBits(b))
}

// rateBitsImage is an image with its sample rates moved out of the
// float fields into their bits.
type rateBitsImage struct {
	img   Image
	rates []uint64
}

func withRateBits(img *Image) rateBitsImage {
	out := rateBitsImage{img: *img, rates: make([]uint64, len(img.Entries))}
	out.img.Entries = make([]Entry, len(img.Entries))
	for i, e := range img.Entries {
		c := *e.Compressed
		out.rates[i] = math.Float64bits(c.SampleRate)
		c.SampleRate = 0
		e.Compressed = &c
		out.img.Entries[i] = e
	}
	return out
}

func FuzzReadImage(f *testing.F) {
	for _, ws := range []int{4, 16} {
		raw := seedImage(f, ws)
		f.Add(raw)
		f.Add(raw[:len(raw)-3])
		f.Add(raw[:8])
	}
	f.Add([]byte("CPQT"))
	f.Add([]byte{})
	f.Add(nanRateImage(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("input larger than the fuzz budget")
		}
		img, err := ReadImage(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parses must survive the read-side API...
		_ = img.Stats()
		// ...and serialize/parse back to an identical image: WriteTo
		// and ReadImage are inverses on ReadImage's output.
		var buf bytes.Buffer
		if _, err := img.WriteTo(&buf); err != nil {
			return
		}
		img2, err := ReadImage(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-serialized image does not parse: %v", err)
		}
		if !sameImage(img, img2) {
			t.Fatal("WriteTo/ReadImage round trip changed the image")
		}
	})
}

// chunkReader delivers at most chunk bytes per Read — the shape of a
// congested network connection. chunk 0 degenerates to one byte.
type chunkReader struct {
	r     io.Reader
	chunk int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.chunk < 1 {
		c.chunk = 1
	}
	if len(p) > c.chunk {
		p = p[:c.chunk]
	}
	return c.r.Read(p)
}

// FuzzReadImageShortRead re-runs the reader invariants under injected
// short reads: data arriving in fuzzer-chosen chunk sizes, possibly cut
// off mid-stream. Short reads must never change what parses (a valid
// image stays valid byte-for-byte) and a cut stream must fail cleanly —
// an error, never a panic or a hang.
func FuzzReadImageShortRead(f *testing.F) {
	for _, ws := range []int{4, 16} {
		raw := seedImage(f, ws)
		f.Add(raw, uint32(len(raw)), uint8(1))
		f.Add(raw, uint32(len(raw)/2), uint8(3))
		f.Add(raw, uint32(7), uint8(0))
	}
	f.Add([]byte("CPQT"), uint32(4), uint8(2))
	nan := nanRateImage(f)
	f.Add(nan, uint32(len(nan)), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, cut uint32, chunk uint8) {
		if len(data) > 1<<20 {
			t.Skip("input larger than the fuzz budget")
		}
		if int(cut) < len(data) {
			data = data[:cut]
		}
		want, wantErr := ReadImage(bytes.NewReader(data))
		got, gotErr := ReadImage(&chunkReader{r: bytes.NewReader(data), chunk: int(chunk)})
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("short reads changed the outcome: %v vs %v", wantErr, gotErr)
		}
		if wantErr == nil && !sameImage(want, got) {
			t.Fatal("short reads changed the parsed image")
		}
		// One-byte reads through the stdlib's pathological reader as well.
		if _, err := ReadImage(iotest.OneByteReader(bytes.NewReader(data))); (err == nil) != (wantErr == nil) {
			t.Fatalf("one-byte reads changed the outcome: %v vs %v", err, wantErr)
		}
	})
}

// TestReadImageHostileLengths pins the allocation hardening with
// direct regression cases (the fuzzer found these shapes; keeping them
// as named tests makes the contract explicit): each is rejected, and
// none allocates more than a small constant, whatever length it
// declares.
func TestReadImageHostileLengths(t *testing.T) {
	cases := map[string][]byte{
		// Window size 0: the metadata rebuild walks windows of ws
		// samples, so an unvalidated zero would never advance it
		// (infinite loop + unbounded WindowWords growth) once an entry
		// carries a non-repeat stream word.
		"zero window size": append(
			[]byte{'C', 'P', 'Q', 'T', 1, 0, 0, 0, 0, 0, 1, 0, 0, 0},
			// key "", gate "", qubit 0, target 0, rate 0, samples 0,
			// I stream: 1 word, a literal-sample codeword
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0,
			1, 0, 0, 0,
			0x34, 0x12, 0x00, 0x00,
		),
		// Window size 65535: larger than the decoder's fixed 32-sample
		// window buffers.
		"oversized window": {'C', 'P', 'Q', 'T', 1, 0, 0xff, 0xff, 0, 0, 0, 0, 0, 0},
		// Window size 7: within range but not an engine window.
		"non-engine window": {'C', 'P', 'Q', 'T', 1, 0, 7, 0, 0, 0, 0, 0, 0, 0},
		// Entry count 2^31 with an empty body.
		"huge entry count": {'C', 'P', 'Q', 'T', 1, 0, 16, 0, 0, 0, 0x00, 0x00, 0x00, 0x80},
		// One entry claiming ~4G samples.
		"huge sample count": append(
			[]byte{'C', 'P', 'Q', 'T', 1, 0, 16, 0, 0, 0, 1, 0, 0, 0},
			// key "", gate "", qubit 0, target 0, rate 0, samples 0xffffffff
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0,
			0xff, 0xff, 0xff, 0xff,
		),
		// One entry whose I channel claims 2^24-1 words backed by nothing.
		"huge stream length": append(
			[]byte{'C', 'P', 'Q', 'T', 1, 0, 16, 0, 0, 0, 1, 0, 0, 0},
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 0, 0,
			16, 0, 0, 0, // 16 samples
			0xff, 0xff, 0xff, 0x00, // I word count 2^24-1
		),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			img, err := ReadImage(bytes.NewReader(data))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("hostile input parsed into %d entries, want error", len(img.Entries))
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
				t.Errorf("hostile input allocated %d bytes, want under 64 KiB", got)
			}
		})
	}
}
