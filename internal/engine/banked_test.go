package engine

import (
	"slices"
	"testing"

	"compaqt/internal/compress"
	"compaqt/internal/rle"
	"compaqt/internal/wave"
)

func TestBankedPlaybackBitExact(t *testing.T) {
	pulses := []*wave.Fixed{
		wave.DRAG("X", rate, wave.DRAGParams{Amp: 0.45, Duration: 35.2e-9, Sigma: 8e-9, Beta: 0.7}).Quantize(),
		wave.GaussianSquare("CR", rate, wave.GaussianSquareParams{Amp: 0.3, Duration: 300e-9, Width: 225e-9, Sigma: 12e-9, Angle: 0.8}).Quantize(),
	}
	for _, ws := range []int{8, 16} {
		e, err := New(ws)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range pulses {
			c, err := compress.Compress(f, compress.Options{Variant: compress.IntDCTW, WindowSize: ws})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := e.RunChannel(&c.I, c.Samples)
			if err != nil {
				t.Fatal(err)
			}
			bc, err := LoadChannel(&c.I, ws, c.Samples)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := e.Play(bc)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("ws=%d %s: banked playback differs at %d", ws, f.Name, i)
				}
			}
			// One row fetch per window: cycles == windows == rows.
			if st.Cycles != int64(bc.Rows) {
				t.Errorf("cycles %d != rows %d", st.Cycles, bc.Rows)
			}
			// Row fetches read width words each (uniform layout cost).
			if st.MemWords != int64(bc.Rows*bc.Width) {
				t.Errorf("mem words %d != rows*width %d", st.MemWords, bc.Rows*bc.Width)
			}
		}
	}
}

func TestBankedWidthMatchesWorstWindow(t *testing.T) {
	f := wave.DRAG("X", rate, wave.DRAGParams{Amp: 0.45, Duration: 35.2e-9, Sigma: 8e-9, Beta: 0.7}).Quantize()
	c, err := compress.Compress(f, compress.Options{Variant: compress.IntDCTW, WindowSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := LoadChannel(&c.I, 16, c.Samples)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 11/12: the banked width is the worst-case compressed window
	// (3 for DRAG libraries), i.e. 3 BRAMs per channel.
	if bc.Width < 2 || bc.Width > 4 {
		t.Errorf("banked width %d, want ~3", bc.Width)
	}
	if bc.Array.Banks != bc.Width {
		t.Errorf("banks %d != width %d", bc.Array.Banks, bc.Width)
	}
	// Per-bank read counts are balanced (every row reads every bank).
	if _, _, err := mustEngine(t, 16).Play(bc); err != nil {
		t.Fatal(err)
	}
	first := bc.Array.BankReads[0]
	for b, n := range bc.Array.BankReads {
		if n != first {
			t.Errorf("bank %d reads %d, want %d (balanced)", b, n, first)
		}
	}
}

func mustEngine(t *testing.T, ws int) *Engine {
	t.Helper()
	e, err := New(ws)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBankedRejectsAdaptive(t *testing.T) {
	f := wave.GaussianSquare("flat", rate, wave.GaussianSquareParams{
		Amp: 0.4, Duration: 100e-9, Width: 60e-9, Sigma: 5e-9, Angle: 0.5,
	}).Quantize()
	c, err := compress.Compress(f, compress.Options{Variant: compress.IntDCTW, WindowSize: 16, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.I.RepeatWords == 0 {
		t.Skip("no repeats found; adaptive path unused")
	}
	if _, err := LoadChannel(&c.I, 16, c.Samples); err == nil {
		t.Error("adaptive stream should be rejected by the banked loader")
	}
}

func TestBankedPlayWindowMismatch(t *testing.T) {
	f := wave.DRAG("X", rate, wave.DRAGParams{Amp: 0.45, Duration: 35.2e-9, Sigma: 8e-9, Beta: 0.7}).Quantize()
	c, err := compress.Compress(f, compress.Options{Variant: compress.IntDCTW, WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := LoadChannel(&c.I, 8, c.Samples)
	if err != nil {
		t.Fatal(err)
	}
	e16 := mustEngine(t, 16)
	if _, _, err := e16.Play(bc); err == nil {
		t.Error("window mismatch should be rejected")
	}
}

// TestDecodersRejectTheSameMalformedWindows runs every window decoder
// over a two-window channel (ws 4, 8 samples) whose second window is
// well formed or malformed in one way: the streamed engine, the banked
// engine, the software reference and rle.DecodeWindow must accept and
// refuse together, and where they accept, the three sample decoders
// must agree. WindowWords is the banked row layout.
func TestDecodersRejectTheSameMalformedWindows(t *testing.T) {
	const ws, n = 4, 8
	first := []rle.Word{rle.Sample(900), rle.Sample(-40), rle.Sample(25), rle.Sample(-3)}
	cases := []struct {
		name   string
		second []rle.Word
		ok     bool
	}{
		{"well formed", []rle.Word{rle.Sample(300), rle.ZeroRun(3)}, true},
		{"truncated", []rle.Word{rle.Sample(300)}, false},
		{"repeat inside", []rle.Word{rle.Sample(300), rle.Repeat(3)}, false},
		{"zero run past ws", []rle.Word{rle.Sample(300), rle.ZeroRun(4)}, false},
	}
	e := mustEngine(t, ws)
	for _, tc := range cases {
		ch := compress.Channel{
			Stream:      append(append([]rle.Word(nil), first...), tc.second...),
			WindowWords: []int{len(first), len(tc.second)},
		}
		c := &compress.Compressed{Variant: compress.IntDCTW, WindowSize: ws, Samples: n, I: ch, Q: ch}

		streamed, _, errRun := e.RunChannel(&ch, n)
		bc, err := LoadChannel(&ch, ws, n)
		if err != nil {
			t.Fatalf("%s: LoadChannel: %v", tc.name, err)
		}
		banked, _, errPlay := e.Play(bc)
		ref, errDec := c.Decompress()
		_, errWin := rle.DecodeWindow(tc.second, ws)
		for _, r := range []struct {
			decoder string
			err     error
		}{{"RunChannel", errRun}, {"Play", errPlay}, {"Decompress", errDec}, {"DecodeWindow", errWin}} {
			if (r.err == nil) != tc.ok {
				t.Errorf("%s: %s err = %v, want ok=%t", tc.name, r.decoder, r.err, tc.ok)
			}
		}
		if tc.ok && errRun == nil && errPlay == nil && errDec == nil &&
			(!slices.Equal(streamed, ref.I) || !slices.Equal(banked, ref.I)) {
			t.Errorf("%s: samples differ: RunChannel %v, Play %v, Decompress %v", tc.name, streamed, banked, ref.I)
		}
	}
}
