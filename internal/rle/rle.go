// Package rle implements the run-length encoding layer of COMPAQT's
// compression pipeline (Section IV-C of the paper).
//
// After the (integer) DCT and thresholding, the tail of each window is
// consistently zero. RLE replaces that zero tail with a single codeword
// carrying (1) a signature identifying it as an RLE codeword and (2)
// the number of encoded zeros.
//
// Word format. Xilinx block RAMs are natively 18 bits wide (16 data +
// 2 parity bits); the stream therefore uses 17 of the 18 bits: a 16-bit
// payload plus a 1-bit codeword tag, so the signature can never collide
// with a legitimate Q1.15 sample. Capacity and bandwidth accounting is
// done in words (one word per BRAM access), exactly as the paper counts
// "samples per window".
//
// Codeword payload layout (bit 16 set):
//
//	bits [11:0]  run-1
//	bits [14:12] kind: 0 = zero-run (DCT path)
//	                   1 = repeat   (adaptive flat-top path, Sec. V-D)
//
// A zero-run codeword says "the remaining run samples of this window
// are zero". A repeat codeword says "hold the previous time-domain
// sample for run samples" and lets the decompression engine bypass the
// IDCT entirely; it sits between windows, never inside one.
//
// ReadWindow is the format's one window reader: the software
// decompressor, the engine model (streamed and banked), the image
// decoder's window accounting and DCT-N all expand windows through it.
package rle

import "fmt"

// Word is one 17-bit element of the compressed stream, stored in the
// low 17 bits: bits [15:0] payload, bit 16 codeword tag.
type Word uint32

// MaxRun is the largest run length a single codeword can encode (12-bit
// run field). Longer runs are split across codewords.
const MaxRun = 4096

const (
	tagBit     = 1 << 16
	kindShift  = 12
	kindMask   = 0x7 << kindShift
	runMask    = 0xFFF
	kindZero   = 0 << kindShift
	kindRepeat = 1 << kindShift
)

// Sample wraps a literal Q1.15 sample as a stream word.
func Sample(s int16) Word { return Word(uint16(s)) }

// ZeroRun builds a codeword encoding run zeros. Panics if run is out of
// range; the compressor never emits runs outside [1, MaxRun].
func ZeroRun(run int) Word {
	if run < 1 || run > MaxRun {
		panic(fmt.Sprintf("rle: zero run %d out of range", run))
	}
	return Word(tagBit | kindZero | (run - 1))
}

// Repeat builds a codeword meaning "hold the previous sample for run
// more samples" (adaptive decompression path).
func Repeat(run int) Word {
	if run < 1 || run > MaxRun {
		panic(fmt.Sprintf("rle: repeat run %d out of range", run))
	}
	return Word(tagBit | kindRepeat | (run - 1))
}

// IsCodeword reports whether w is an RLE codeword rather than a literal
// sample.
func IsCodeword(w Word) bool { return w&tagBit != 0 }

// Kind describes what a stream word is.
type Kind int

const (
	KindSample Kind = iota
	KindZeroRun
	KindRepeat
)

// Decode classifies a word. For codewords it also returns the run
// length; for samples it returns the sample value in the run slot's
// place as 0 (use SampleValue).
func Decode(w Word) (Kind, int) {
	if w&tagBit == 0 {
		return KindSample, 0
	}
	run := int(w&runMask) + 1
	if w&kindMask == kindRepeat {
		return KindRepeat, run
	}
	return KindZeroRun, run
}

// SampleValue extracts the literal sample payload.
func SampleValue(w Word) int16 { return int16(uint16(w)) }

// EncodeWindow RLE-encodes one thresholded DCT window: literal samples
// up to and including the last nonzero coefficient, then one zero-run
// codeword for the tail (if any). A fully-zero window is a single
// codeword. This matches the paper's scheme where "RLE is started only
// when the transformed waveform after thresholding is consistently
// zero" — interior zeros before the last nonzero coefficient stay
// literal.
func EncodeWindow(win []int16) []Word {
	return AppendWindow(nil, win)
}

// AppendWindow is EncodeWindow appending to dst, so a caller encoding a
// whole channel amortizes the stream allocation instead of paying one
// per window. It returns the extended slice.
func AppendWindow(dst []Word, win []int16) []Word {
	last := -1
	for i, v := range win {
		if v != 0 {
			last = i
		}
	}
	if dst == nil {
		dst = make([]Word, 0, last+2)
	}
	for i := 0; i <= last; i++ {
		dst = append(dst, Sample(win[i]))
	}
	if tail := len(win) - (last + 1); tail > 0 {
		for tail > 0 {
			r := tail
			if r > MaxRun {
				r = MaxRun
			}
			dst = append(dst, ZeroRun(r))
			tail -= r
		}
	}
	return dst
}

// ReadWindow expands the DCT window at the front of words into dst,
// whose length is the window size ws, and returns how many words the
// window took: literal coefficients up to the zero-run codeword that
// covers the rest of the window (dst is cleared first, so the run
// writes nothing).
//
// A window must cover exactly ws samples. On a malformed window used
// still says where the window ends, so a caller that only measures
// windows can step past it: a zero run past the window counts as used,
// a repeat codeword does not (it belongs between windows), and a window
// that runs out of words used them all.
func ReadWindow[T int16 | int32](dst []T, words []Word) (used int, err error) {
	clear(dst)
	ws, covered := len(dst), 0
	for covered < ws {
		if used == len(words) {
			return used, fmt.Errorf("rle: truncated window: %d words cover %d of %d samples", used, covered, ws)
		}
		w := words[used]
		switch kind, run := Decode(w); kind {
		case KindSample:
			dst[covered] = T(SampleValue(w))
			covered++
		case KindZeroRun:
			covered += run
		case KindRepeat:
			return used, fmt.Errorf("rle: repeat codeword at word %d of a DCT window", used)
		}
		used++
	}
	if covered != ws {
		return used, fmt.Errorf("rle: window decodes to %d samples, want %d", covered, ws)
	}
	return used, nil
}

// DecodeWindow expands an encoded window back to ws samples: ReadWindow,
// with every word required to belong to the window (DCT-N stores each
// channel as one window).
func DecodeWindow(enc []Word, ws int) ([]int16, error) {
	out := make([]int16, ws)
	used, err := ReadWindow(out, enc)
	if err != nil {
		return nil, err
	}
	if used != len(enc) {
		return nil, fmt.Errorf("rle: %d words left after a %d-sample window", len(enc)-used, ws)
	}
	return out, nil
}

// EncodeRepeatRun emits the codeword sequence for holding the previous
// sample for n more samples, splitting runs longer than MaxRun.
func EncodeRepeatRun(n int) []Word {
	return AppendRepeatRun(nil, n)
}

// AppendRepeatRun is EncodeRepeatRun appending to dst.
func AppendRepeatRun(dst []Word, n int) []Word {
	for n > 0 {
		r := n
		if r > MaxRun {
			r = MaxRun
		}
		dst = append(dst, Repeat(r))
		n -= r
	}
	return dst
}

// AppendRun appends run copies of v to dst — the time-domain expansion
// of a repeat codeword ("hold the previous sample for run samples"),
// shared by the software decompressor and the engine model. The fill
// runs in O(log run) block copies instead of one append per sample.
func AppendRun(dst []int16, v int16, run int) []int16 {
	if run <= 0 {
		return dst
	}
	n0 := len(dst)
	if n0+run > cap(dst) {
		grown := make([]int16, n0, max(2*cap(dst), n0+run))
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:n0+run]
	dst[n0] = v
	for f := 1; f < run; f *= 2 {
		copy(dst[n0+f:n0+run], dst[n0:n0+f])
	}
	return dst
}
