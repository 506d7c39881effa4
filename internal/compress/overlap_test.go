package compress

import (
	"reflect"
	"testing"

	"compaqt/internal/dct"
	"compaqt/internal/rle"
	"compaqt/internal/wave"
)

func TestOverlappedRoundTrip(t *testing.T) {
	for _, ws := range []int{8, 16} {
		for _, f := range []*wave.Fixed{dragPulse(), crPulse()} {
			c, err := CompressOverlapped(f, ws, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Overlapped {
				t.Fatal("Overlapped flag not set")
			}
			d, err := c.Decompress()
			if err != nil {
				t.Fatal(err)
			}
			if d.Samples() != f.Samples() {
				t.Fatalf("ws=%d %s: %d samples, want %d", ws, f.Name, d.Samples(), f.Samples())
			}
			if mse := wave.MSEFixed(f, d); mse > 5e-5 {
				t.Errorf("ws=%d %s: MSE %g", ws, f.Name, mse)
			}
		}
	}
}

func TestOverlappedReducesBoundaryError(t *testing.T) {
	// The point of the extension (Section VII-B): WS=8 boundary
	// distortion shrinks with overlapping windows. Compare
	// boundary-adjacent MSE at an aggressive threshold where the
	// distortion is visible.
	f := dragPulse()
	const thr = 0.016
	plain, err := Compress(f, Options{Variant: IntDCTW, WindowSize: 8, Threshold: thr})
	if err != nil {
		t.Fatal(err)
	}
	dPlain, err := plain.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	over, err := CompressOverlapped(f, 8, thr)
	if err != nil {
		t.Fatal(err)
	}
	dOver, err := over.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	bPlain := BoundaryMSE(f, dPlain, 8)
	bOver := BoundaryMSE(f, dOver, 8-OverlapLen)
	if bOver >= bPlain {
		t.Errorf("overlap did not reduce boundary MSE: %g vs %g", bOver, bPlain)
	}
}

func TestOverlappedCostsCapacity(t *testing.T) {
	// More windows = more words; the documented tradeoff.
	f := crPulse()
	plain, err := Compress(f, Options{Variant: IntDCTW, WindowSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	over, err := CompressOverlapped(f, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	pw, ow := plain.Words(LayoutPacked), over.Words(LayoutPacked)
	if ow <= pw {
		t.Errorf("overlapped words %d should exceed plain %d", ow, pw)
	}
	// ...but bounded by the window-count inflation ws/(ws-3) plus a
	// little per-window variance.
	if float64(ow) > 1.5*float64(pw) {
		t.Errorf("overlap inflation %d/%d too large", ow, pw)
	}
}

func TestOverlappedRejectsBadConfig(t *testing.T) {
	f := dragPulse()
	if _, err := CompressOverlapped(f, 12, 0); err == nil {
		t.Error("window 12 should be rejected")
	}
	// Window 4 leaves a stride of 1 <= overlap; valid per the guard
	// (4 > 3) but stride 1 is legal; just ensure no panic and exact
	// sample count.
	c, err := CompressOverlapped(f, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	if d.Samples() != f.Samples() {
		t.Error("window-4 overlap roundtrip length mismatch")
	}
}

// TestOverlapWindowCount pins the one window count both layouts use:
// the plain layout at stride ws, the overlapped one at ws-OverlapLen.
func TestOverlapWindowCount(t *testing.T) {
	cases := []struct{ n, ws, stride, want int }{
		{0, 16, 16, 0},
		{0, 16, 13, 0},
		{1, 16, 16, 1},
		{16, 16, 16, 1},
		{17, 16, 16, 2},
		{144, 16, 16, 9},
		{145, 16, 16, 10},
		{16, 16, 13, 1},
		{17, 16, 13, 2},
		{144, 16, 13, 11}, // (144-16)/13 = 9.8 -> 10 + 1
		{8, 8, 5, 1},
		{40, 8, 5, 8}, // (40-8)/5 = 6.4 -> 7 + 1
	}
	for _, c := range cases {
		if got := windowCount(c.n, c.ws, c.stride); got != c.want {
			t.Errorf("windowCount(%d, %d, %d) = %d, want %d", c.n, c.ws, c.stride, got, c.want)
		}
	}
}

func TestOverlappedEmptyWaveform(t *testing.T) {
	f := &wave.Fixed{Name: "empty", SampleRate: rate}
	for _, ws := range []int{8, 16} {
		c, err := CompressOverlapped(f, ws, 0)
		if err != nil {
			t.Fatalf("ws=%d: %v", ws, err)
		}
		if len(c.I.Stream) != 0 || len(c.Q.Stream) != 0 || len(c.I.WindowWords) != 0 {
			t.Fatalf("ws=%d: empty waveform encoded to %d+%d words", ws, len(c.I.Stream), len(c.Q.Stream))
		}
		d, err := c.Decompress()
		if err != nil {
			t.Fatalf("ws=%d: %v", ws, err)
		}
		if d.Samples() != 0 {
			t.Fatalf("ws=%d: decompressed to %d samples, want 0", ws, d.Samples())
		}
	}
}

// TestOverlappedThresholdRoundsLikePlain puts the threshold 0.75 past
// a coefficient's magnitude, where rounding it to an integer zeroes
// the coefficient and truncating would keep it. A waveform of one
// window has the same single window on both layouts, so both must
// write the same stream, with that coefficient zeroed.
func TestOverlappedThresholdRoundsLikePlain(t *testing.T) {
	const ws = 8
	win := []int16{1000, 3000, 5200, 7000, 8100, 6900, 5000, 2800}
	f := &wave.Fixed{Name: "ramp", SampleRate: rate, I: win, Q: win}
	y := dct.IntForward(win, ws)
	k := -1
	for i, c := range y {
		if c != 0 && (k < 0 || abs32(c) < abs32(y[k])) {
			k = i
		}
	}
	if k < 0 {
		t.Fatal("window transforms to all zeros")
	}
	thr := (float64(abs32(y[k])) + 0.75) / wave.FullScale
	plain, err := Compress(f, Options{Variant: IntDCTW, WindowSize: ws, Threshold: thr})
	if err != nil {
		t.Fatal(err)
	}
	over, err := CompressOverlapped(f, ws, thr)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Compressed{"plain": plain, "overlapped": over} {
		coeffs, err := rle.DecodeWindow(c.I.Stream, ws)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if coeffs[k] != 0 {
			t.Errorf("%s: coefficient %d (|%d| < threshold %g) kept as %d",
				name, k, abs32(y[k]), thr*wave.FullScale, coeffs[k])
		}
	}
	if !reflect.DeepEqual(plain.I.Stream, over.I.Stream) {
		t.Errorf("one-window streams differ: plain %v, overlapped %v", plain.I.Stream, over.I.Stream)
	}
}

func TestBoundaryMSEBasics(t *testing.T) {
	f := dragPulse()
	if BoundaryMSE(f, f, 8) != 0 {
		t.Error("identical waveforms should have zero boundary MSE")
	}
	if BoundaryMSE(f, f, 1) != 0 {
		t.Error("stride < 2 should return 0")
	}
}
