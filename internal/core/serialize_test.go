package core

import (
	"bytes"
	"strings"
	"testing"

	"compaqt/internal/compress"
	"compaqt/internal/device"
)

func testImage(t *testing.T) *Image {
	t.Helper()
	c := &Compiler{WindowSize: 16, Adaptive: true}
	img, err := c.Compile(device.Bogota())
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestSizeMatchesWriteTo(t *testing.T) {
	img := testImage(t)
	var buf bytes.Buffer
	n, err := img.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != buf.Len() {
		t.Errorf("WriteTo returned %d, wrote %d bytes", n, buf.Len())
	}
	if img.Size() != buf.Len() {
		t.Errorf("Size() = %d, serialized form is %d bytes", img.Size(), buf.Len())
	}
	empty := &Image{Machine: "m", WindowSize: 16}
	var ebuf bytes.Buffer
	if _, err := empty.WriteTo(&ebuf); err != nil {
		t.Fatal(err)
	}
	if empty.Size() != ebuf.Len() {
		t.Errorf("empty image Size() = %d, serialized form is %d bytes", empty.Size(), ebuf.Len())
	}
}

func TestAppendToMatchesWriteTo(t *testing.T) {
	img := testImage(t)
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := img.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Fatal("AppendTo bytes differ from WriteTo bytes")
	}
	// Appending after a prefix keeps the prefix and appends the same
	// serialized form.
	withPrefix, err := img.AppendTo([]byte("prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(withPrefix[:6], []byte("prefix")) || !bytes.Equal(withPrefix[6:], buf.Bytes()) {
		t.Fatal("AppendTo with a prefix corrupted the output")
	}
}

// TestValidateImageBytes pins the walk to the decoder it guards: on
// every prefix of a real library the two accept or reject together,
// the walk reports the image's exact length and ignores trailing
// bytes, re-serializing the decoded image gives the input back, and
// the walk allocates nothing.
func TestValidateImageBytes(t *testing.T) {
	wire, err := testImage(t).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= len(wire); i++ {
		n, err := ValidateImageBytes(wire[:i])
		_, derr := DecodeImageBytes(wire[:i])
		if (err == nil) != (derr == nil) {
			t.Fatalf("prefix %d: walk err = %v, decode err = %v", i, err, derr)
		}
		if err == nil && n != i {
			t.Fatalf("prefix %d: walk accepted %d bytes", i, n)
		}
	}
	if n, err := ValidateImageBytes(append(wire[:len(wire):len(wire)], "JUNK"...)); err != nil || n != len(wire) {
		t.Fatalf("image + trailing bytes: n = %d, err = %v; want %d, nil", n, err, len(wire))
	}
	img, err := DecodeImageBytes(wire)
	if err != nil {
		t.Fatal(err)
	}
	again, err := img.AppendTo(nil)
	if err != nil || !bytes.Equal(again, wire) {
		t.Fatalf("decode then AppendTo changed the bytes (err %v)", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ValidateImageBytes(wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ValidateImageBytes allocated %.1f times per run, want 0", allocs)
	}
}

func TestAppendToPreSizedAllocationFree(t *testing.T) {
	img := testImage(t)
	dst := make([]byte, 0, img.Size())
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if dst, err = img.AppendTo(dst[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendTo with a pre-sized destination allocated %.1f times per run, want 0", allocs)
	}
}

func TestAppendToRejectsNonWireVariants(t *testing.T) {
	over, err := compress.CompressOverlapped(device.Bogota().XPulse(0).Waveform.Quantize(), 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Entry){
		"Delta": func(e *Entry) { e.Compressed.Variant = compress.Delta },
		// The format has no place for the overlapped flag: written, the
		// entry would read back as the plain layout and decode to other
		// samples.
		"overlapped": func(e *Entry) { e.Compressed = over },
	} {
		img := testImage(t)
		mutate(&img.Entries[0])
		key := img.Entries[0].Key
		if _, err := img.AppendTo(nil); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("AppendTo of the %s entry: err %v, want a refusal naming %q", name, err, key)
		}
		if _, err := img.WriteTo(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("WriteTo of the %s entry: err %v, want a refusal naming %q", name, err, key)
		}
	}
}

func TestDecodeImageBytesRoundTrip(t *testing.T) {
	img := testImage(t)
	wire, err := img.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeImageBytes(wire)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded image must re-serialize to the identical bytes...
	back, err := got.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, wire) {
		t.Fatal("DecodeImageBytes round trip changed the wire bytes")
	}
	// ...agree with the io.Reader entry point entry for entry...
	ref, err := ReadImage(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if got.Machine != ref.Machine || got.WindowSize != ref.WindowSize || len(got.Entries) != len(ref.Entries) {
		t.Fatal("DecodeImageBytes header disagrees with ReadImage")
	}
	for i := range ref.Entries {
		a, b := &ref.Entries[i], &got.Entries[i]
		if a.Key != b.Key || a.Gate != b.Gate || a.Qubit != b.Qubit || a.Target != b.Target {
			t.Fatalf("entry %d metadata mismatch", i)
		}
		if len(a.Compressed.I.WindowWords) != len(b.Compressed.I.WindowWords) {
			t.Fatalf("entry %d rebuilt window metadata mismatch", i)
		}
	}
	// ...and carry identical derived stats (metadata rebuild parity).
	if got.Stats() != ref.Stats() {
		t.Errorf("stats mismatch: %+v vs %+v", got.Stats(), ref.Stats())
	}
}

func TestDecodeImageBytesRejectsHostileInput(t *testing.T) {
	img := testImage(t)
	wire, err := img.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": []byte("NOPE00000000"),
		"truncated": wire[:len(wire)/2],
		"short hdr": wire[:6],
	}
	for name, b := range cases {
		if _, err := DecodeImageBytes(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Every truncation point must error, never panic or over-read.
	for cut := 0; cut < len(wire)-1; cut += 7 {
		if _, err := DecodeImageBytes(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}
