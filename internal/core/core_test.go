package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"compaqt/internal/device"
	"compaqt/internal/wave"
)

func TestCompileLibrary(t *testing.T) {
	m := device.Bogota()
	c := &Compiler{WindowSize: 16}
	img, err := c.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	want := 3*m.Qubits + 2*len(m.Coupling)
	if len(img.Entries) != want {
		t.Fatalf("image has %d entries, want %d", len(img.Entries), want)
	}
	s := img.Stats()
	if s.PackedRatio < 5 || s.PackedRatio > 9 {
		t.Errorf("packed ratio %.2f outside band", s.PackedRatio)
	}
	if s.UniformRatio > s.PackedRatio {
		t.Error("uniform layout cannot beat packed")
	}
	if s.WorstWindow < 2 || s.WorstWindow > 5 {
		t.Errorf("worst window %d implausible", s.WorstWindow)
	}
}

func TestCompilerValidation(t *testing.T) {
	if _, err := (&Compiler{WindowSize: 12}).Compile(device.Bogota()); err == nil {
		t.Error("window 12 should be rejected")
	}
}

func TestFidelityAwareCompile(t *testing.T) {
	m := device.Bogota()
	c := &Compiler{WindowSize: 16, TargetMSE: 5e-6}
	img, err := c.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	// Every pulse must round-trip within the target.
	for i := range img.Entries {
		e := &img.Entries[i]
		d, err := e.Compressed.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.GatePulse(e.Gate, e.Qubit, e.Target)
		if err != nil {
			t.Fatal(err)
		}
		if mse := wave.MSEFixed(p.Waveform.Quantize(), d); mse > 5e-6 {
			t.Errorf("%s: MSE %g exceeds target", e.Key, mse)
		}
	}
}

func TestPipelinePlay(t *testing.T) {
	m := device.Bogota()
	c := &Compiler{WindowSize: 16}
	img, err := c.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(img)
	if err != nil {
		t.Fatal(err)
	}
	w, st, err := p.Play("X_q0")
	if err != nil {
		t.Fatal(err)
	}
	if w.Samples() != m.PulseSamples(m.Latency.OneQ) {
		t.Errorf("played %d samples", w.Samples())
	}
	if st.MemWords == 0 || st.IDCTOps == 0 {
		t.Error("no activity recorded")
	}
	if _, _, err := p.Play("X_q99"); err == nil {
		t.Error("missing key should error")
	}
}

func TestImageSerializationRoundTrip(t *testing.T) {
	m := device.Bogota()
	c := &Compiler{WindowSize: 16, Adaptive: true}
	img, err := c.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Machine != img.Machine || got.WindowSize != img.WindowSize {
		t.Fatal("header mismatch")
	}
	if len(got.Entries) != len(img.Entries) {
		t.Fatalf("entry count %d != %d", len(got.Entries), len(img.Entries))
	}
	for i := range img.Entries {
		a, b := &img.Entries[i], &got.Entries[i]
		if a.Key != b.Key || a.Gate != b.Gate || a.Qubit != b.Qubit || a.Target != b.Target {
			t.Fatalf("entry %d metadata mismatch", i)
		}
		// Decompressed output must be bit-identical.
		wa, err := a.Compressed.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		wb, err := b.Compressed.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		for j := range wa.I {
			if wa.I[j] != wb.I[j] || wa.Q[j] != wb.Q[j] {
				t.Fatalf("entry %s sample %d differs after round trip", a.Key, j)
			}
		}
	}
	// Derived stats must survive serialization.
	if img.Stats() != got.Stats() {
		t.Errorf("stats mismatch: %+v vs %+v", img.Stats(), got.Stats())
	}
}

func TestReadImageRejectsGarbage(t *testing.T) {
	if _, err := ReadImage(bytes.NewReader([]byte("NOPE00000000"))); err == nil {
		t.Error("bad magic should error")
	}
	if _, err := ReadImage(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should error")
	}
}

// TestReadDeclared pins the declared-length body reader the PUT
// handler and the peer client share: an honest body of any size comes
// back whole in a buffer of exactly its length, and a short one fails
// as io.ReadFull would.
func TestReadDeclared(t *testing.T) {
	for _, n := range []int{0, 1, declaredChunk, declaredChunk + 1, 5*declaredChunk + 3} {
		body := bytes.Repeat([]byte{0xa5}, n)
		got, err := ReadDeclared(bytes.NewReader(body), int64(n))
		if err != nil || !bytes.Equal(got, body) || cap(got) != n {
			t.Fatalf("%d-byte body: %d bytes, cap %d, err %v; want the body in an exact-size buffer", n, len(got), cap(got), err)
		}
	}
	for _, tc := range []struct {
		sent int
		want error
	}{{0, io.EOF}, {1, io.ErrUnexpectedEOF}, {declaredChunk, io.ErrUnexpectedEOF}, {declaredChunk + 1, io.ErrUnexpectedEOF}} {
		_, err := ReadDeclared(bytes.NewReader(make([]byte, tc.sent)), 2*declaredChunk)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%d of %d declared bytes: err %v, want %v", tc.sent, 2*declaredChunk, err, tc.want)
		}
	}
}

func TestCompilePulses(t *testing.T) {
	c := &Compiler{WindowSize: 16}
	img, err := c.CompilePulses("complex", []*device.Pulse{
		device.IToffoliPulse(device.IBMSampleRate),
		device.ToffoliPulse(device.IBMSampleRate),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Entries) != 2 {
		t.Fatalf("entries = %d", len(img.Entries))
	}
}
