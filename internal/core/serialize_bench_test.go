package core

import (
	"io"
	"testing"

	"compaqt/internal/device"
)

// benchImage compiles Bogota's full library once: a realistic mix of
// 1Q and 2Q pulses, the same workload the serialization hot path sees
// when the serving layer streams stored images.
func benchImage(b *testing.B) *Image {
	b.Helper()
	c := &Compiler{WindowSize: 16}
	img, err := c.Compile(device.Bogota())
	if err != nil {
		b.Fatal(err)
	}
	return img
}

func BenchmarkImageWriteTo(b *testing.B) {
	img := benchImage(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := img.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImageAppendTo(b *testing.B) {
	img := benchImage(b)
	dst := make([]byte, 0, img.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = img.AppendTo(dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImageDecodeBytes(b *testing.B) {
	img := benchImage(b)
	wire, err := img.AppendTo(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeImageBytes(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImageValidateBytes is BenchmarkImageDecodeBytes' check
// without the build: what a PUT, a peer fill or a repair pays to
// accept an image it only keeps and serves as bytes.
func BenchmarkImageValidateBytes(b *testing.B) {
	img := benchImage(b)
	wire, err := img.AppendTo(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ValidateImageBytes(wire); err != nil {
			b.Fatal(err)
		}
	}
}
