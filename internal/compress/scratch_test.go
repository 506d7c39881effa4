package compress

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"compaqt/internal/dct"
	"compaqt/internal/rle"
	"compaqt/internal/wave"
)

// referenceWindowedChannel is the pre-optimization windowed encoder,
// kept as a straight-line oracle: per-window allocations, the naive
// float DCT, rle.EncodeWindow. The pooled/Into production path must
// produce byte-identical streams.
func referenceWindowedChannel(t *testing.T, samples []int16, ws int, thr int32, opts Options) *Channel {
	t.Helper()
	ch := &Channel{}
	n := len(samples)
	numWin := (n + ws - 1) / ws
	repeatWin := make([]bool, numWin)
	if opts.Adaptive {
		markRepeatWindows(samples, ws, repeatWin)
	}
	win := make([]int16, ws)
	w := 0
	for w < numWin {
		if repeatWin[w] {
			start := w
			for w < numWin && repeatWin[w] {
				w++
			}
			run := (w - start) * ws
			if end := start*ws + run; end > n {
				run -= end - n
			}
			words := rle.EncodeRepeatRun(run)
			ch.Stream = append(ch.Stream, words...)
			ch.RepeatWords += len(words)
			ch.RepeatSamples += run
			continue
		}
		for i := 0; i < ws; i++ {
			idx := w*ws + i
			if idx < n {
				win[i] = samples[idx]
			} else {
				win[i] = samples[n-1]
			}
		}
		coeffs := make([]int16, ws)
		switch opts.Variant {
		case IntDCTW:
			y := dct.IntForward(win, ws)
			for k, c := range y {
				if abs32(c) < thr {
					c = 0
				}
				coeffs[k] = clampCoeff(c)
			}
		case DCTW:
			xf := make([]float64, ws)
			for i, s := range win {
				xf[i] = float64(s)
			}
			y := dct.NaiveForward(xf)
			scale := math.Sqrt(float64(ws))
			for k, c := range y {
				q := int32(math.Round(c / scale))
				if abs32(q) < thr {
					q = 0
				}
				coeffs[k] = clampCoeff(q)
			}
		default:
			t.Fatalf("reference encoder: bad variant %v", opts.Variant)
		}
		enc := rle.EncodeWindow(coeffs)
		ch.Stream = append(ch.Stream, enc...)
		ch.WindowWords = append(ch.WindowWords, len(enc))
		w++
	}
	return ch
}

func TestWindowedStreamsMatchReferenceEncoder(t *testing.T) {
	// The zero-allocation rewrite must not move a single bit of the
	// compressed image, for both windowed variants, every window size,
	// adaptive on and off, and channel lengths that exercise the
	// hold-last padding of a final partial window.
	rng := rand.New(rand.NewSource(31))
	for _, variant := range []Variant{IntDCTW, DCTW} {
		for _, ws := range []int{4, 8, 16, 32} {
			for _, adaptive := range []bool{false, true} {
				for _, n := range []int{ws, 3*ws - 1, 160, 1000} {
					fx := randomSmoothWaveform(rng, n)
					// Splice in a flat top so the adaptive path has
					// repeats to find.
					if adaptive {
						mid := n / 2
						for i := n / 4; i < mid; i++ {
							fx.I[i] = fx.I[n/4]
							fx.Q[i] = fx.Q[n/4]
						}
					}
					opts := Options{Variant: variant, WindowSize: ws, Adaptive: adaptive}
					got, err := Compress(fx, opts)
					if err != nil {
						t.Fatal(err)
					}
					thr := int32(math.Round(opts.threshold() * wave.FullScale))
					for chIdx, samples := range [][]int16{fx.I, fx.Q} {
						want := referenceWindowedChannel(t, samples, ws, thr, opts)
						gotCh := &got.I
						if chIdx == 1 {
							gotCh = &got.Q
						}
						if !reflect.DeepEqual(gotCh.Stream, want.Stream) {
							t.Fatalf("%v ws=%d adaptive=%t n=%d ch=%d: stream differs from reference",
								variant, ws, adaptive, n, chIdx)
						}
						if !reflect.DeepEqual(gotCh.WindowWords, want.WindowWords) ||
							gotCh.RepeatWords != want.RepeatWords ||
							gotCh.RepeatSamples != want.RepeatSamples {
							t.Fatalf("%v ws=%d adaptive=%t n=%d ch=%d: window accounting differs",
								variant, ws, adaptive, n, chIdx)
						}
					}
				}
			}
		}
	}
}

func TestOverlappedStreamMatchesReferenceEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, ws := range []int{8, 16} {
		fx := randomSmoothWaveform(rng, 500)
		c, err := CompressOverlapped(fx, ws, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: encode each overlapped window independently.
		stride := ws - OverlapLen
		numWin := windowCount(500, ws, stride)
		thr := int32(math.Round(DefaultThreshold * wave.FullScale))
		var want []rle.Word
		win := make([]int16, ws)
		for w := 0; w < numWin; w++ {
			for i := 0; i < ws; i++ {
				idx := w*stride + i
				if idx < len(fx.I) {
					win[i] = fx.I[idx]
				} else {
					win[i] = fx.I[len(fx.I)-1]
				}
			}
			y := dct.IntForward(win, ws)
			coeffs := make([]int16, ws)
			for k, cf := range y {
				if abs32(cf) < thr {
					cf = 0
				}
				coeffs[k] = clampCoeff(cf)
			}
			want = append(want, rle.EncodeWindow(coeffs)...)
		}
		if !reflect.DeepEqual(c.I.Stream, want) {
			t.Fatalf("ws=%d: overlapped stream differs from reference", ws)
		}
	}
}

func TestCompressDeterministicUnderPoolReuse(t *testing.T) {
	// Pool-backed scratch must never leak state between compressions:
	// the same input compresses to the same bytes on every call, even
	// after the pools were warmed by unrelated (longer) waveforms.
	rng := rand.New(rand.NewSource(33))
	long := randomSmoothWaveform(rng, 3000)
	short := randomSmoothWaveform(rng, 200)
	for _, opts := range []Options{
		{Variant: IntDCTW, WindowSize: 16},
		{Variant: DCTW, WindowSize: 8},
		{Variant: DCTN},
	} {
		first, err := Compress(short, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compress(long, opts); err != nil { // dirty the pools
			t.Fatal(err)
		}
		second, err := Compress(short, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.I.Stream, second.I.Stream) || !reflect.DeepEqual(first.Q.Stream, second.Q.Stream) {
			t.Errorf("%v: recompression differs after pool reuse", opts.Variant)
		}
		if first.I.Scale != second.I.Scale || first.Q.Scale != second.Q.Scale {
			t.Errorf("%v: scale factors differ after pool reuse", opts.Variant)
		}
	}
}

func TestConcurrentCompressDecompressPoolStress(t *testing.T) {
	// Hammer the pooled hot paths from many goroutines (run under -race
	// in CI): each worker owns its input, compresses, decompresses, and
	// checks the result against a serially computed reference.
	rng := rand.New(rand.NewSource(34))
	type job struct {
		fx   *wave.Fixed
		opts Options
		want *wave.Fixed
	}
	var jobs []job
	for i, opts := range []Options{
		{Variant: IntDCTW, WindowSize: 16, Adaptive: true},
		{Variant: IntDCTW, WindowSize: 8},
		{Variant: DCTW, WindowSize: 16},
		{Variant: DCTN},
	} {
		fx := randomSmoothWaveform(rng, 400+100*i)
		c, err := Compress(fx, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.Decompress()
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{fx: fx, opts: opts, want: want})
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				j := jobs[(w+iter)%len(jobs)]
				c, err := Compress(j.fx, j.opts)
				if err != nil {
					t.Error(err)
					return
				}
				d, err := c.Decompress()
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(d.I, j.want.I) || !reflect.DeepEqual(d.Q, j.want.Q) {
					t.Errorf("%v: concurrent round trip differs from serial reference", j.opts.Variant)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
