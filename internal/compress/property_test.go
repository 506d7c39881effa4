package compress

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"compaqt/internal/rle"
	"compaqt/internal/wave"
)

// Property-based tests on the compression invariants.

// randomSmoothWaveform synthesizes a random band-limited envelope of
// the kind calibration produces: a few low-frequency cosine components
// with a taper, amplitude below full scale.
func randomSmoothWaveform(rng *rand.Rand, n int) *wave.Fixed {
	w := &wave.Waveform{
		Name:       "prop",
		SampleRate: 4.54e9,
		I:          make([]float64, n),
		Q:          make([]float64, n),
	}
	comps := 1 + rng.Intn(4)
	for c := 0; c < comps; c++ {
		ampI := (rng.Float64() - 0.5) * 0.4
		ampQ := (rng.Float64() - 0.5) * 0.4
		freq := rng.Float64() * 4 / float64(n) // <= 2 cycles over the pulse
		phase := rng.Float64() * 2 * math.Pi
		for i := 0; i < n; i++ {
			v := math.Cos(2*math.Pi*freq*float64(i) + phase)
			w.I[i] += ampI * v
			w.Q[i] += ampQ * v
		}
	}
	// Taper to zero at the edges like every calibrated pulse.
	taper := n / 8
	for i := 0; i < taper; i++ {
		f := 0.5 * (1 - math.Cos(math.Pi*float64(i)/float64(taper)))
		w.I[i] *= f
		w.Q[i] *= f
		w.I[n-1-i] *= f
		w.Q[n-1-i] *= f
	}
	return w.Quantize()
}

func TestPropertyRoundTripBounded(t *testing.T) {
	// For any smooth waveform: compression succeeds, reconstructs the
	// exact sample count, R >= 1 under packed accounting, and MSE stays
	// below the fidelity-relevant bound.
	f := func(seed int64, sizeSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + int(sizeSel)%7*160
		fx := randomSmoothWaveform(rng, n)
		for _, ws := range []int{8, 16} {
			c, err := Compress(fx, Options{Variant: IntDCTW, WindowSize: ws})
			if err != nil {
				return false
			}
			d, err := c.Decompress()
			if err != nil || d.Samples() != fx.Samples() {
				return false
			}
			if c.Ratio(LayoutPacked) < 1 {
				return false
			}
			if wave.MSEFixed(fx, d) > 5e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLosslessBaselinesExact(t *testing.T) {
	// Delta and Dict are lossless on arbitrary (even non-smooth) data.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32 + rng.Intn(300)
		fx := &wave.Fixed{Name: "rand", SampleRate: 1e9, I: make([]int16, n), Q: make([]int16, n)}
		for i := 0; i < n; i++ {
			fx.I[i] = int16(rng.Intn(65535) - 32767)
			fx.Q[i] = int16(rng.Intn(65535) - 32767)
		}
		for _, v := range []Variant{Delta, Dict} {
			c, err := Compress(fx, Options{Variant: v})
			if err != nil {
				return false
			}
			d, err := c.Decompress()
			if err != nil {
				return false
			}
			for i := 0; i < n; i++ {
				if d.I[i] != fx.I[i] || d.Q[i] != fx.Q[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAdaptiveNeverWorseThanPlain(t *testing.T) {
	// The adaptive path may only remove words, never add them, and the
	// reconstruction stays within the plain path's error class.
	f := func(seed int64, flat uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		// Flat-top with randomized flat fraction.
		frac := 0.2 + float64(flat%60)/100
		dur := 200e-9
		w := wave.GaussianSquare("p", 4.54e9, wave.GaussianSquareParams{
			Amp:      0.2 + rng.Float64()*0.5,
			Duration: dur,
			Width:    dur * frac,
			Sigma:    dur * 0.03,
			Angle:    rng.Float64(),
		}).Quantize()
		plain, err := Compress(w, Options{Variant: IntDCTW, WindowSize: 16})
		if err != nil {
			return false
		}
		adap, err := Compress(w, Options{Variant: IntDCTW, WindowSize: 16, Adaptive: true})
		if err != nil {
			return false
		}
		if adap.Words(LayoutPacked) > plain.Words(LayoutPacked) {
			return false
		}
		d, err := adap.Decompress()
		if err != nil {
			return false
		}
		return wave.MSEFixed(w, d) < 5e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFidelityAwareMonotone(t *testing.T) {
	// A looser MSE target never yields a worse (lower) ratio.
	fx := crPulse()
	var prev float64 = math.Inf(1)
	for _, target := range []float64{1e-7, 1e-6, 1e-5, 1e-4} {
		res, err := FidelityAware(fx, Options{Variant: IntDCTW, WindowSize: 16}, target)
		if err != nil {
			// very tight targets can be unreachable; skip those
			continue
		}
		r := res.Compressed.Ratio(LayoutPacked)
		if prev != math.Inf(1) && r+1e-9 < prev {
			// ratio can only grow (or stay) as the target loosens —
			// but prev tracks the previous (tighter) target's ratio, so
			// check r >= prev.
			t.Errorf("target %g: ratio %g regressed below %g", target, r, prev)
		}
		if r > prev || prev == math.Inf(1) {
			prev = r
		}
	}
}

func TestCorruptedStreamsRejected(t *testing.T) {
	// Failure injection: decompression must error (never panic or
	// silently mis-decode) on malformed streams.
	f := dragPulse()
	c, err := Compress(f, Options{Variant: IntDCTW, WindowSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Truncated stream.
	trunc := *c
	trunc.I = *cloneChannel(&c.I)
	trunc.I.Stream = trunc.I.Stream[:len(trunc.I.Stream)-2]
	if _, err := trunc.Decompress(); err == nil {
		t.Error("truncated stream should error")
	}
	// Extra words.
	extra := *c
	extra.I = *cloneChannel(&c.I)
	extra.I.Stream = append(extra.I.Stream, extra.I.Stream[0])
	if _, err := extra.Decompress(); err == nil {
		t.Error("overlong stream should error")
	}
}

// TestDecompressRejectsInvalidWindow: a window size outside the
// engine's set comes back as an error on both windowed variants. At 0
// a window takes no words, so the decoder would never step past it;
// above 32 it would overrun the fixed window buffers.
func TestDecompressRejectsInvalidWindow(t *testing.T) {
	ch := Channel{Stream: []rle.Word{rle.Repeat(2), rle.Sample(1), rle.ZeroRun(3)}}
	for _, v := range []Variant{IntDCTW, DCTW} {
		for _, ws := range []int{12, 64, 0} {
			c := &Compressed{Name: "bad", Variant: v, WindowSize: ws, Samples: 6, I: ch, Q: ch}
			if _, err := c.Decompress(); err == nil || !strings.Contains(err.Error(), "invalid window size") {
				t.Errorf("%v window %d: err %v, want an invalid-window refusal", v, ws, err)
			}
		}
	}
}

func cloneChannel(ch *Channel) *Channel {
	c := *ch
	c.Stream = append([]rle.Word(nil), ch.Stream...)
	return &c
}
