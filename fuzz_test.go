// Fuzz targets over the untrusted-input surfaces: image bytes from the
// wire (OpenImage/ReadImage must never panic or balloon memory on
// hostile length fields) and playback/decode of whatever parses. Seed
// corpora come from the golden wire-format images, so the fuzzers
// start from valid CPQT bytes and mutate outward.
//
// CI runs these as a short smoke (-fuzztime=10s per target); the same
// functions run as plain regression tests over the seed corpus in
// ordinary `go test` runs.
package compaqt_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"compaqt"
	"compaqt/codec"
	"compaqt/internal/compress"
	"compaqt/internal/core"
	"compaqt/internal/rle"
	"compaqt/internal/store"
)

// addImageSeeds feeds the golden corpus plus a few structural edge
// cases (truncations, header-only, corrupt magic) to a fuzz target.
func addImageSeeds(f *testing.F) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.cpqt"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no golden images found; run `go test -run TestGolden -update .` first")
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2]) // truncated mid-entry
		f.Add(raw[:16])         // header only
	}
	f.Add([]byte{})
	f.Add([]byte("CPQT"))
	f.Add([]byte("JUNK war bytes"))
	// Hostile lengths: valid magic/version/window, then a huge entry
	// count and stream length with no data behind them.
	f.Add([]byte{'C', 'P', 'Q', 'T', 1, 0, 16, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
}

// FuzzOpenImage feeds arbitrary bytes to the full service-level image
// path: deserialize, aggregate stats, look up and play entries through
// the hardware-engine model. Nothing may panic; hostile inputs must
// come back as errors. The engine and the software reference read
// windows the same way: for every entry played, Play and Decompress
// both fail or return the same samples.
func FuzzOpenImage(f *testing.F) {
	addImageSeeds(f)
	// A window whose zero run overshoots the window size.
	f.Add(oneEntryImage(f, []rle.Word{rle.Sample(5), rle.ZeroRun(16)}))
	svc, err := compaqt.New()
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("image larger than the fuzz budget")
		}
		img, err := svc.OpenImage(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		_ = img.Stats()
		for i := range img.Entries {
			if i >= 8 {
				break
			}
			// Errors are acceptable (malformed streams, bad windows);
			// panics and runaway allocations are not.
			key := img.Entries[i].Key
			got, _, errPlay := svc.Play(ctx, key)
			e, err := img.Lookup(key) // the entry Play played
			if err != nil {
				t.Fatal(err)
			}
			want, errDec := e.Compressed.Decompress()
			if (errPlay == nil) != (errDec == nil) {
				t.Fatalf("entry %q: Play err=%v, Decompress err=%v", key, errPlay, errDec)
			}
			if errPlay == nil && (!slices.Equal(got.I, want.I) || !slices.Equal(got.Q, want.Q)) {
				t.Fatalf("entry %q: Play and Decompress return different samples", key)
			}
		}
	})
}

// oneEntryImage serializes a window-16 image of one 16-sample entry
// whose I and Q channels both hold stream.
func oneEntryImage(f *testing.F, stream []rle.Word) []byte {
	f.Helper()
	c := &compress.Compressed{Name: "X_q0", Variant: compress.IntDCTW, WindowSize: 16,
		SampleRate: 4.54e9, Samples: 16,
		I: compress.Channel{Stream: stream}, Q: compress.Channel{Stream: stream}}
	img := &core.Image{Machine: "seed", WindowSize: 16,
		Entries: []core.Entry{{Key: "X_q0", Gate: "X", Target: -1, Compressed: c}}}
	wire, err := img.AppendTo(nil)
	if err != nil {
		f.Fatal(err)
	}
	return wire
}

// FuzzDecodeImage drives parsed-but-untrusted images through the
// software decode path (the codec Decode used for verification and
// fidelity checks) and through re-serialization: WriteTo of a parsed
// image must round-trip to the same parse. It also holds the
// allocation-free walk the server validates ingress with to the
// decoder: the same accept set, the exact image length, the exact
// bytes AppendTo writes back, and the same content digest from the
// bytes as from the decoded image.
func FuzzDecodeImage(f *testing.F) {
	addImageSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("image larger than the fuzz budget")
		}
		img, err := compaqt.ReadImage(bytes.NewReader(data))
		// ReadImage is the io.Reader entry point to the byte decoder:
		// reading through it must not change what parses.
		imgB, errB := compaqt.DecodeImageBytes(data)
		if (err == nil) != (errB == nil) {
			t.Fatalf("decoder disagreement: ReadImage err=%v, DecodeImageBytes err=%v", err, errB)
		}
		n, errW := core.ValidateImageBytes(data)
		if (errW == nil) != (errB == nil) {
			t.Fatalf("walk disagreement: ValidateImageBytes err=%v, DecodeImageBytes err=%v", errW, errB)
		}
		if err != nil {
			return
		}
		wireA, errA := img.AppendTo(nil)
		wireB, errB := imgB.AppendTo(nil)
		if (errA == nil) != (errB == nil) || !bytes.Equal(wireA, wireB) {
			t.Fatal("ReadImage and DecodeImageBytes parsed different images")
		}
		if errB != nil || n != len(wireB) || !bytes.Equal(data[:n], wireB) {
			t.Fatalf("walk measured %d bytes; AppendTo of the decoded image wrote %d (err %v), or other bytes",
				n, len(wireB), errB)
		}
		if store.DigestWire(data[:n]) != store.DigestImage(imgB) {
			t.Fatal("DigestWire of the accepted bytes differs from DigestImage of the decoded image")
		}
		if c, err := codec.New("intdct-w", codec.Params{Window: img.WindowSize}); err == nil {
			for i := range img.Entries {
				if i >= 8 {
					break
				}
				_, _ = c.Decode(img.Entries[i].Compressed) // must not panic
			}
		}
		// Re-serialization round-trip: what parsed must write back and
		// parse to the same image.
		var buf bytes.Buffer
		if _, err := img.WriteTo(&buf); err != nil {
			return // e.g. strings the writer rejects
		}
		img2, err := compaqt.ReadImage(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-serialized image does not parse: %v", err)
		}
		if len(img2.Entries) != len(img.Entries) || img2.WindowSize != img.WindowSize || img2.Machine != img.Machine {
			t.Fatalf("re-serialization changed the image shape: %d/%d entries, window %d/%d",
				len(img.Entries), len(img2.Entries), img.WindowSize, img2.WindowSize)
		}
	})
}
