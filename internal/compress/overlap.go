package compress

import (
	"fmt"

	"compaqt/internal/dct"
	"compaqt/internal/wave"
)

// Overlapping-window compression — the extension the paper proposes to
// remove WS=8's window-boundary distortion ("These distortions can be
// reduced by using overlapping windows", Section VII-B).
//
// The overlapped layout is the plain one at stride ws-OverlapLen:
// compressWindowed and decompressChannel serve both, and only the
// decoder's crossfade is particular to it. On decompression the
// overlap region crossfades linearly between the two reconstructions.
// The overlap is fixed at 3 samples so the blend weights are k/4 —
// realizable with shifts and adds, keeping the decompression engine
// multiplierless. The cost is ws/(ws-3) more windows (1.6x for WS=8,
// 1.23x for WS=16), which is why the paper treats it as an optional
// fidelity knob rather than the default.

// OverlapLen is the fixed window overlap in samples.
const OverlapLen = 3

// CompressOverlapped compresses with int-DCT-W over overlapping
// windows. Adaptive repeats are not supported on this path (the blend
// would break the hold-last semantics).
func CompressOverlapped(f *wave.Fixed, ws int, threshold float64) (*Compressed, error) {
	if !dct.ValidWindow(ws) {
		return nil, fmt.Errorf("compress: invalid window size %d", ws)
	}
	if ws <= OverlapLen {
		return nil, fmt.Errorf("compress: window %d too small for overlap %d", ws, OverlapLen)
	}
	opts := Options{Variant: IntDCTW, WindowSize: ws, Threshold: threshold}
	return compressWindowed(f, opts, ws-OverlapLen)
}

// BoundaryMSE measures reconstruction error restricted to the samples
// adjacent to window boundaries — the distortion the overlapped scheme
// targets. stride is the window advance of the layout being assessed.
func BoundaryMSE(orig, rec *wave.Fixed, stride int) float64 {
	if stride < 2 {
		return 0
	}
	var sum float64
	count := 0
	for _, ch := range [2][2][]int16{{orig.I, rec.I}, {orig.Q, rec.Q}} {
		o, r := ch[0], ch[1]
		for b := stride; b < len(o); b += stride {
			for _, idx := range []int{b - 1, b} {
				d := float64(o[idx]-r[idx]) / wave.FullScale
				sum += d * d
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
