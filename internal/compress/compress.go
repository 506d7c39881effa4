// Package compress implements COMPAQT's compile-time waveform
// compression (Section IV of the paper): windowed (integer) DCT with
// thresholding and run-length encoding, the DCT-N and DCT-W reference
// variants, the Delta and Dictionary baselines the paper compares
// against, fidelity-aware threshold tuning (Algorithm 1), and the
// adaptive flat-top scheme of Section V-D.
//
// Compression runs in software at the end of a calibration cycle;
// decompression is performed by the hardware pipeline modeled in
// internal/engine. The compressed representation here is exactly the
// word stream that engine consumes.
package compress

import (
	"fmt"
	"math"

	"compaqt/internal/dct"
	"compaqt/internal/rle"
	"compaqt/internal/wave"
)

// Variant selects the compression algorithm (Table II plus baselines).
type Variant int

const (
	// Delta is the sign-magnitude delta-encoding baseline (Sec. IV-B).
	Delta Variant = iota
	// Dict is the block-dictionary baseline (Sec. IV-B).
	Dict
	// DCTN is the N-point floating-point DCT over the whole waveform.
	DCTN
	// DCTW is the windowed floating-point DCT.
	DCTW
	// IntDCTW is the windowed HEVC-style integer DCT — the variant the
	// COMPAQT hardware implements.
	IntDCTW
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case Delta:
		return "Delta"
	case Dict:
		return "Dict"
	case DCTN:
		return "DCT-N"
	case DCTW:
		return "DCT-W"
	case IntDCTW:
		return "int-DCT-W"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Layout selects how compressed windows are placed in memory
// (Section V-C).
type Layout int

const (
	// LayoutUniform gives every window of a waveform the same width,
	// equal to the worst-case compressed window. This sacrifices some
	// capacity but turns compression into deterministic bandwidth on
	// banked FPGA memory — the COMPAQT RFSoC design point.
	LayoutUniform Layout = iota
	// LayoutPacked stores each window at its natural width, fetched
	// sequentially. Used by the ASIC design point (Section VII-D) and
	// by capacity-only comparisons such as DCT-N.
	LayoutPacked
)

// DefaultThreshold is the relative coefficient threshold used when no
// fidelity target drives Algorithm 1. Coefficients below this fraction
// of full scale are zeroed before RLE. The value 0.008 is what
// Algorithm 1 typically converges to on IBM-style DRAG/CR libraries: it
// leaves at most ~3 words per 16-sample window (Fig. 11) with
// round-trip MSE in the paper's 1e-7..5e-6 band (Fig. 7c).
const DefaultThreshold = 0.008

// Options configures compression.
type Options struct {
	Variant Variant
	// WindowSize applies to DCTW/IntDCTW: 4, 8, 16 or 32.
	WindowSize int
	// Threshold is the relative threshold (fraction of full scale);
	// 0 means DefaultThreshold. Ignored by Delta/Dict.
	Threshold float64
	// Adaptive enables the flat-top repeat path (Section V-D). Only
	// meaningful for IntDCTW with LayoutPacked accounting.
	Adaptive bool
}

func (o Options) threshold() float64 {
	if o.Threshold == 0 {
		return DefaultThreshold
	}
	return o.Threshold
}

// Fingerprint renders the options that determine Compress output —
// variant, window, effective threshold, adaptive — as a stable string
// for content-addressed cache keying. Two Options with equal
// fingerprints produce byte-identical streams for the same input.
// Layout is excluded on purpose: it only changes Ratio accounting,
// never the encoded stream.
func (o Options) Fingerprint() string {
	return fmt.Sprintf("%v/ws=%d/thr=%g/adaptive=%t",
		o.Variant, o.WindowSize, o.threshold(), o.Adaptive)
}

// Channel is one compressed I or Q stream.
type Channel struct {
	// Stream is the word sequence as stored in memory: DCT windows
	// (literal coefficients + zero-run codeword) interleaved with
	// repeat codewords on the adaptive path.
	Stream []rle.Word
	// WindowWords[i] is the word count of the i-th DCT window, in
	// stream order (repeat codewords are not windows). Used for the
	// uniform-layout width computation and Fig. 11's histogram.
	WindowWords []int
	// RepeatWords counts repeat codewords in the stream.
	RepeatWords int
	// RepeatSamples counts time-domain samples covered by repeats.
	RepeatSamples int
	// Scale is the per-channel dequantization scale for the float DCT
	// variants (DCTN); 0 for fixed-scale variants.
	Scale float64
	// BaselineWords overrides the stored word count for variants whose
	// encoding is not the Stream (Delta, Dict) or that carry side data
	// (DCT-N scale factors). 0 means "use len(Stream)".
	BaselineWords int
}

// Words returns the packed word count of the channel.
func (c *Channel) Words() int {
	if c.BaselineWords > 0 {
		return c.BaselineWords
	}
	return len(c.Stream)
}

// Compressed is a waveform after compile-time compression.
type Compressed struct {
	Name       string
	Variant    Variant
	WindowSize int
	SampleRate float64
	// Samples is the original per-channel sample count.
	Samples int
	// Overlapped marks the overlapping-window layout (see overlap.go);
	// its windows advance by WindowSize-OverlapLen samples.
	Overlapped bool
	I, Q       Channel

	// delta/dict baselines store their own encodings.
	delta *deltaEncoding
	dict  *dictEncoding
}

// Compress compresses a fixed-point waveform. The original waveform is
// not retained; Decompress reconstructs the (lossy) result.
func Compress(f *wave.Fixed, opts Options) (*Compressed, error) {
	switch opts.Variant {
	case Delta:
		return compressDelta(f)
	case Dict:
		return compressDict(f)
	case DCTN:
		return compressDCTN(f, opts)
	case DCTW, IntDCTW:
		if !dct.ValidWindow(opts.WindowSize) {
			return nil, fmt.Errorf("compress: invalid window size %d for %v", opts.WindowSize, opts.Variant)
		}
		return compressWindowed(f, opts, opts.WindowSize)
	default:
		return nil, fmt.Errorf("compress: unknown variant %v", opts.Variant)
	}
}

// compressWindowed implements the DCT-W and int-DCT-W paths, with a
// window starting every stride samples: ws on the plain layout,
// ws-OverlapLen on the overlapped one.
func compressWindowed(f *wave.Fixed, opts Options, stride int) (*Compressed, error) {
	ws := opts.WindowSize
	c := &Compressed{
		Name:       f.Name,
		Variant:    opts.Variant,
		WindowSize: ws,
		SampleRate: f.SampleRate,
		Samples:    f.Samples(),
		Overlapped: stride < ws,
	}
	thr := int32(math.Round(opts.threshold() * wave.FullScale))

	// The adaptive path needs flat runs common to the stream structure;
	// each channel carries its own repeats (packed/ASIC layout).
	for chIdx, samples := range [][]int16{f.I, f.Q} {
		ch, err := compressChannel(samples, ws, stride, thr, opts)
		if err != nil {
			return nil, fmt.Errorf("compress: %q channel %d: %w", f.Name, chIdx, err)
		}
		if chIdx == 0 {
			c.I = *ch
		} else {
			c.Q = *ch
		}
	}
	return c, nil
}

// compressChannel compresses one channel with the windowed transform,
// window w covering samples [w*stride, w*stride+ws). The whole channel
// runs in fixed stack scratch (ws <= 32) with the stream and WindowWords
// grown by amortized append — O(1) amortized allocations per window.
func compressChannel(samples []int16, ws, stride int, thr int32, opts Options) (*Channel, error) {
	ch := &Channel{}
	n := len(samples)
	numWin := windowCount(n, ws, stride)

	// Adaptive path (plain layout only, stride ws): mark windows fully
	// covered by a flat run that begins strictly before them, so the
	// "hold previous sample" semantics reproduce the flat value
	// (Section V-D).
	var repeatWin []bool
	if opts.Adaptive {
		repeatWin = make([]bool, numWin)
		markRepeatWindows(samples, ws, repeatWin)
	}

	var winBuf [32]int16
	win := winBuf[:ws]
	ch.WindowWords = make([]int, 0, numWin)
	w := 0
	for w < numWin {
		if repeatWin != nil && repeatWin[w] {
			// Coalesce consecutive repeat windows into one run.
			start := w
			for w < numWin && repeatWin[w] {
				w++
			}
			run := (w - start) * ws
			if end := start*ws + run; end > n {
				run -= end - n
			}
			before := len(ch.Stream)
			ch.Stream = rle.AppendRepeatRun(ch.Stream, run)
			ch.RepeatWords += len(ch.Stream) - before
			ch.RepeatSamples += run
			continue
		}
		// DCT window; the final partial window is padded by holding the
		// last sample (zero-padding would add a step discontinuity on
		// channels that end slightly off zero, e.g. the DRAG derivative
		// channel, and blow up the window's high-frequency content).
		for i := 0; i < ws; i++ {
			idx := w*stride + i
			if idx < n {
				win[i] = samples[idx]
			} else {
				win[i] = samples[n-1]
			}
		}
		before := len(ch.Stream)
		stream, err := appendDCTWindow(ch.Stream, win, ws, thr, opts.Variant)
		if err != nil {
			return nil, err
		}
		ch.Stream = stream
		ch.WindowWords = append(ch.WindowWords, len(stream)-before)
		w++
	}
	return ch, nil
}

// appendDCTWindow transforms, thresholds and RLE-encodes one window,
// appending the encoding to dst. All transform scratch lives in fixed
// stack buffers, so the only heap traffic is dst's amortized growth.
func appendDCTWindow(dst []rle.Word, win []int16, ws int, thr int32, v Variant) ([]rle.Word, error) {
	var coefBuf [32]int16
	coeffs := coefBuf[:ws]
	switch v {
	case IntDCTW:
		var yBuf [32]int32
		y := yBuf[:ws]
		dct.IntForwardInto(y, win, ws)
		for k, c := range y {
			if abs32(c) < thr {
				c = 0
			}
			coeffs[k] = clampCoeff(c)
		}
	case DCTW:
		// Float DCT with fixed scaling sqrt(ws): coefficients of a
		// unit-amplitude window fit 16 bits exactly.
		var xfBuf, yfBuf [32]float64
		xf, yf := xfBuf[:ws], yfBuf[:ws]
		for i, s := range win {
			xf[i] = float64(s)
		}
		dct.ForwardInto(yf, xf)
		// Fixed scaling sqrt(ws) puts the stored coefficients in the
		// same units as the integer path, so the same threshold applies.
		scale := math.Sqrt(float64(ws))
		for k, c := range yf {
			q := int32(math.Round(c / scale))
			if abs32(q) < thr {
				q = 0
			}
			coeffs[k] = clampCoeff(q)
		}
	default:
		return dst, fmt.Errorf("appendDCTWindow: bad variant %v", v)
	}
	return rle.AppendWindow(dst, coeffs), nil
}

// Decompress reconstructs the waveform. For IntDCTW this is exactly the
// computation the hardware engine performs (internal/engine checks
// bit-equality against it).
func (c *Compressed) Decompress() (*wave.Fixed, error) {
	switch c.Variant {
	case Delta:
		return c.delta.decode(c)
	case Dict:
		return c.dict.decode(c)
	case DCTN:
		return decompressDCTN(c)
	case DCTW, IntDCTW:
		if !dct.ValidWindow(c.WindowSize) {
			return nil, fmt.Errorf("decompress %q: invalid window size %d", c.Name, c.WindowSize)
		}
		stride := c.WindowSize
		if c.Overlapped {
			stride -= OverlapLen
		}
		out := &wave.Fixed{Name: c.Name, SampleRate: c.SampleRate}
		var err error
		out.I, err = decompressChannel(&c.I, c.WindowSize, stride, c.Samples, c.Variant)
		if err != nil {
			return nil, fmt.Errorf("decompress %q I: %w", c.Name, err)
		}
		out.Q, err = decompressChannel(&c.Q, c.WindowSize, stride, c.Samples, c.Variant)
		if err != nil {
			return nil, fmt.Errorf("decompress %q Q: %w", c.Name, err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("decompress: unknown variant %v", c.Variant)
	}
}

// decompressChannel walks the stream: repeat codewords hold the last
// emitted sample; anything else begins a DCT window, which lands stride
// samples after the previous one. Where windows overlap (stride < ws),
// the window's first ws-stride samples crossfade into the tail the
// output already holds. Per-window scratch lives in fixed stack
// buffers; the only allocation is the returned sample slice.
func decompressChannel(ch *Channel, ws, stride, n int, v Variant) ([]int16, error) {
	if n < 0 {
		return nil, fmt.Errorf("negative sample count %d", n)
	}
	if n == 0 {
		if len(ch.Stream) != 0 {
			return nil, fmt.Errorf("%d stream words but zero samples declared", len(ch.Stream))
		}
		return nil, nil
	}
	// n samples plus room for the hold-last padding of a final partial
	// window (trimmed before return), so decoding never regrows out.
	out := make([]int16, 0, n+ws-1)
	var last int16
	var yBuf [32]int32
	var sBuf [32]int16
	var yfBuf, xfBuf [32]float64
	scale := math.Sqrt(float64(ws))
	i := 0
	for i < len(ch.Stream) {
		if k, run := rle.Decode(ch.Stream[i]); k == rle.KindRepeat {
			// Repeats never extend past the waveform end in compiler
			// output; reject overruns before growing the buffer so a
			// hostile stream cannot amplify a few words into gigabytes.
			if run > n-len(out) {
				return nil, fmt.Errorf("repeat run of %d overruns the %d declared samples", run, n)
			}
			out = rle.AppendRun(out, last, run)
			i++
			continue
		}
		y := yBuf[:ws]
		used, err := rle.ReadWindow(y, ch.Stream[i:])
		if err != nil {
			return nil, fmt.Errorf("window at word %d: %w", i, err)
		}
		i += used
		if len(out) == n {
			continue // a window after the declared samples is dropped
		}
		samples := sBuf[:ws]
		switch v {
		case IntDCTW:
			dct.IntInverseInto(samples, y, ws)
		case DCTW:
			yf, xf := yfBuf[:ws], xfBuf[:ws]
			for k, cf := range y {
				yf[k] = float64(cf) * scale
			}
			dct.InverseInto(xf, yf)
			for k, x := range xf {
				samples[k] = clamp16(int64(math.Round(x)))
			}
		}
		// Crossfade the overlap with weights 1/4, 2/4, 3/4 toward the
		// new window (shift-add friendly).
		tail := out[len(out)-min(ws-stride, len(out)):]
		for k, old := range tail {
			wNew := int32(k + 1)
			tail[k] = int16((int32(old)*(4-wNew) + int32(samples[k])*wNew) / 4)
		}
		out = append(out, samples[len(tail):]...)
		if len(out) > n {
			out = out[:n] // drop the hold-last padding of the final window
		}
		last = out[len(out)-1]
	}
	if len(out) != n {
		return nil, fmt.Errorf("stream decodes to %d samples, want %d", len(out), n)
	}
	return out, nil
}

// windowCount is the number of ws-sample windows, one starting every
// stride samples, that cover n samples; the last may run past n.
func windowCount(n, ws, stride int) int {
	switch {
	case n == 0:
		return 0
	case n <= ws:
		return 1
	}
	return (n-ws+stride-1)/stride + 1
}

// markRepeatWindows flags windows fully inside a constant run that
// starts before the window (so "hold previous" reproduces the value).
func markRepeatWindows(samples []int16, ws int, repeatWin []bool) {
	n := len(samples)
	i := 0
	for i < n {
		j := i
		for j+1 < n && samples[j+1] == samples[i] {
			j++
		}
		// Constant run samples[i..j]. Windows fully within (i, j].
		if j > i {
			firstWin := i/ws + 1 // first window starting strictly after i
			if i%ws == 0 && i > 0 && samples[i-1] == samples[i] {
				firstWin = i / ws
			}
			lastWin := (j+1)/ws - 1 // last window ending at or before j+1
			for w := firstWin; w <= lastWin && w < len(repeatWin); w++ {
				if w*ws > i && (w+1)*ws <= j+1 {
					repeatWin[w] = true
				}
			}
		}
		i = j + 1
	}
}

// Words returns the stored word count under the given layout, summed
// over both channels. Under LayoutUniform every DCT window occupies the
// worst-case window width of the waveform (shared across channels, as
// the paper keeps both channels at the same per-window sample count).
func (c *Compressed) Words(layout Layout) int {
	switch c.Variant {
	case Delta, Dict, DCTN:
		// Baselines and whole-waveform DCT have no windowed layout.
		return c.I.Words() + c.Q.Words()
	}
	if layout == LayoutPacked {
		return c.I.Words() + c.Q.Words()
	}
	width := c.MaxWindowWords()
	total := 0
	for _, ch := range []*Channel{&c.I, &c.Q} {
		total += width*len(ch.WindowWords) + ch.RepeatWords
	}
	return total
}

// OriginalWords is the uncompressed footprint in 16-bit words.
func (c *Compressed) OriginalWords() int { return 2 * c.Samples }

// Ratio returns the compression ratio R = old size / new size
// (Figure 7's metric).
func (c *Compressed) Ratio(layout Layout) float64 {
	w := c.Words(layout)
	if w == 0 {
		return math.Inf(1)
	}
	return float64(c.OriginalWords()) / float64(w)
}

// MaxWindowWords returns the worst-case compressed window width across
// both channels — the uniform-layout width and the quantity
// histogrammed in Fig. 11.
func (c *Compressed) MaxWindowWords() int {
	m := 0
	for _, ch := range []*Channel{&c.I, &c.Q} {
		for _, w := range ch.WindowWords {
			if w > m {
				m = w
			}
		}
	}
	return m
}

// WindowHistogram accumulates the per-window compressed word counts of
// both channels into hist[words] (Fig. 11).
func (c *Compressed) WindowHistogram(hist map[int]int) {
	for _, ch := range []*Channel{&c.I, &c.Q} {
		for _, w := range ch.WindowWords {
			hist[w]++
		}
	}
}

func clampCoeff(v int32) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32767 {
		return -32767
	}
	return int16(v)
}

func clamp16(v int64) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32767 {
		return -32767
	}
	return int16(v)
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}
