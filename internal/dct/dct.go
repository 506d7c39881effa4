// Package dct implements the transforms at the heart of COMPAQT
// (Section IV-C of the paper):
//
//   - the orthonormal floating-point DCT-II and its inverse (DCT-III),
//     used for the DCT-N and DCT-W compression variants (Eq. 1-2), and
//   - the HEVC-style integer DCT/IDCT for 4/8/16/32-point windows,
//     used for the int-DCT-W variant that the hardware decompression
//     engine implements with shift-and-add networks only.
//
// Only the transform mathematics lives here; thresholding, RLE, and the
// memory layout live in internal/compress.
//
// Performance notes. The four integer transform matrices are built once
// at package init as flattened row-major tables, and the per-window
// kernels (IntForwardInto, IntInverseInto) never allocate. The inverse
// multiplies by its matrix, skipping zero coefficients. The forward
// kernel never forms the product: a flat window (about 70% of a
// calibrated library's windows are flat tops) returns [x, 0, ..., 0] at
// once, and any other takes HEVC's exact even-odd butterfly, 88
// multiplies instead of 256 at ws 16, in int32 over half-row tables
// filled at init (see IntForwardInto for why that is exact). The float
// DCT is served by cached Plans (see plan.go): an O(n^2) cached-cosine
// table for short windows and an O(n log n) FFT-based evaluation
// (Makhoul's construction, Bluestein for non-power-of-two lengths) for
// whole-waveform transforms. NaiveForward/NaiveInverse keep the
// textbook double loops as the reference oracle the fast paths are
// tested against.
package dct

import (
	"fmt"
	"math"
)

// Forward computes the orthonormal DCT-II of x (paper Eq. 1 with the
// standard sqrt(2) normalization that makes the pair exactly
// orthonormal):
//
//	y[k] = a(k) * sum_n x[n] cos(pi (2n+1) k / 2N)
//
// with a(0)=sqrt(1/N) and a(k)=sqrt(2/N) otherwise. It is evaluated
// through the cached Plan for len(x); use ForwardInto to avoid the
// result allocation.
func Forward(x []float64) []float64 {
	y := make([]float64, len(x))
	ForwardInto(y, x)
	return y
}

// Inverse computes the orthonormal DCT-III, the exact inverse of
// Forward (paper Eq. 2), through the cached Plan for len(y).
func Inverse(y []float64) []float64 {
	x := make([]float64, len(y))
	InverseInto(x, y)
	return x
}

// ForwardInto computes the orthonormal DCT-II of x into dst, which must
// have len(x). It performs no allocations beyond (pooled, amortized)
// plan scratch.
func ForwardInto(dst, x []float64) {
	if len(x) == 0 {
		return
	}
	PlanFor(len(x)).ForwardInto(dst, x)
}

// InverseInto computes the orthonormal DCT-III of y into dst, which
// must have len(y).
func InverseInto(dst, y []float64) {
	if len(y) == 0 {
		return
	}
	PlanFor(len(y)).InverseInto(dst, y)
}

// NaiveForward is the textbook O(n^2) DCT-II evaluation recomputing the
// cosines inline. It is the reference oracle for the Plan-based fast
// paths and is not used on any compile path.
func NaiveForward(x []float64) []float64 {
	n := len(x)
	y := make([]float64, n)
	if n == 0 {
		return y
	}
	a0 := math.Sqrt(1 / float64(n))
	ak := math.Sqrt(2 / float64(n))
	for k := 0; k < n; k++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += x[i] * math.Cos(math.Pi*float64(2*i+1)*float64(k)/float64(2*n))
		}
		if k == 0 {
			y[k] = a0 * sum
		} else {
			y[k] = ak * sum
		}
	}
	return y
}

// NaiveInverse is the textbook O(n^2) DCT-III evaluation, the reference
// oracle for the fast inverse.
func NaiveInverse(y []float64) []float64 {
	n := len(y)
	x := make([]float64, n)
	if n == 0 {
		return x
	}
	a0 := math.Sqrt(1 / float64(n))
	ak := math.Sqrt(2 / float64(n))
	for i := 0; i < n; i++ {
		sum := a0 * y[0]
		for k := 1; k < n; k++ {
			sum += ak * y[k] * math.Cos(math.Pi*float64(2*i+1)*float64(k)/float64(2*n))
		}
		x[i] = sum
	}
	return x
}

// ValidWindow reports whether ws is a window size supported by the
// integer transform (the HEVC core transform sizes).
func ValidWindow(ws int) bool {
	switch ws {
	case 4, 8, 16, 32:
		return true
	}
	return false
}

// hevcOdd holds the HEVC 32-point core-transform coefficient table
// c[j] ~ round(64*sqrt(2)*cos(j*pi/64)) with the standard's hand-tuned
// adjustments (e.g. c[8]=83, not 84). Index 0 is the DC value 64 and
// index 32 is 0. Every entry of every HEVC transform matrix is +-c[j]
// for some j, selected by folding the DCT argument into the first
// quadrant (see matrix generation below).
var hevcOdd = [33]int32{
	64, 90, 90, 90, 89, 88, 87, 85, 83, 82, 80, 78, 75, 73, 70, 67,
	64, 61, 57, 54, 50, 46, 43, 38, 36, 31, 25, 22, 18, 13, 9, 4,
	0,
}

// coeff returns the signed HEVC matrix entry for DCT argument index
// m = (2n+1)k, using the quarter-wave symmetry of cos(m*pi/64)
// (period 128, antisymmetric about 64, symmetric about 0).
func coeff(m int) int32 {
	m %= 128
	if m < 0 {
		m += 128
	}
	switch {
	case m <= 32:
		return hevcOdd[m]
	case m <= 64:
		return -hevcOdd[64-m]
	case m <= 96:
		return -hevcOdd[m-64]
	default:
		return hevcOdd[128-m]
	}
}

// flatMatrices holds the four integer transform matrices, built once at
// package init, flattened row-major (entry [k][n] at index k*ws+n) for
// cache locality in the per-window kernels. Indexed by log2(ws)-2.
var flatMatrices [4][]int32

func init() {
	for idx, ws := range [4]int{4, 8, 16, 32} {
		stride := 32 / ws
		m := make([]int32, ws*ws)
		for k := 0; k < ws; k++ {
			for col := 0; col < ws; col++ {
				m[k*ws+col] = coeff((2*col + 1) * k * stride)
			}
		}
		flatMatrices[idx] = m
	}
}

// MatrixFlat returns the N-point HEVC integer transform matrix (N = 4,
// 8, 16 or 32) flattened row-major: entry [k][n] is at index k*N+n.
// The returned slice is the shared package-level table; callers must
// treat it as read-only.
func MatrixFlat(n int) []int32 {
	if !ValidWindow(n) {
		panic(fmt.Sprintf("dct: unsupported window size %d", n))
	}
	return flatMatrices[log2(n)-2]
}

// Matrix returns the N-point HEVC integer transform matrix (N = 4, 8,
// 16 or 32) as freshly allocated rows. Row k of the N-point matrix is
// row k*(32/N) of the 32-point matrix truncated to N columns, which is
// how the standard derives the smaller transforms. Matrix is a setup-
// time convenience (hardware models, tests); the per-window kernels use
// the shared flattened table via MatrixFlat.
func Matrix(n int) [][]int32 {
	flat := MatrixFlat(n)
	m := make([][]int32, n)
	for k := 0; k < n; k++ {
		m[k] = append([]int32(nil), flat[k*n:(k+1)*n]...)
	}
	return m
}

// Coefficients returns the distinct positive coefficient magnitudes of
// the N-point matrix (used to build the shift-add hardware model).
func Coefficients(n int) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, v := range MatrixFlat(n) {
		if v < 0 {
			v = -v
		}
		if v != 0 && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Shift split for the integer transform pair. The HEVC rows have squared
// norm N*64^2 = 2^(12+log2(N)), so a forward shift sf and inverse shift
// si with sf+si = 12+log2(N) make the pair reconstruct at unit scale.
// We put the window-size dependence entirely on the software (forward)
// side so the hardware IDCT uses a constant shift of 6 regardless of
// window size -- this is the "input waveform scaled by S = 2^(6+log2N/2)"
// trick of Section IV-C, expressed in integer arithmetic.
const InverseShift = 6

// ForwardShift returns the software-side shift for window size n.
func ForwardShift(n int) uint {
	return uint(6 + log2(n))
}

func log2(n int) int {
	l := 0
	for v := n; v > 1; v >>= 1 {
		l++
	}
	return l
}

// IntForward computes the integer DCT of one window of Q1.15 samples:
//
//	y[k] = round( sum_n M[k][n]*x[n] / 2^ForwardShift )
//
// The result fits int16 for any input in [-32767, 32767] and is what the
// compiler stores in the compressed waveform memory. This side runs in
// software (Section IV-A: compression is free, decompression is not).
func IntForward(x []int16, ws int) []int32 {
	y := make([]int32, ws)
	IntForwardInto(y, x, ws)
	return y
}

// IntForwardInto is IntForward writing into dst (len ws). It performs
// no allocations, and it never forms the matrix product:
//
//   - A flat window, whose samples all equal x, returns [x, 0, ..., 0]
//     at once. Row 0 of every matrix sums to 2^ForwardShift(ws) and
//     every other row sums to 0, so that is the product, rounding
//     included.
//   - Any other window takes HEVC's even-odd "partial butterfly"
//     (Budagavi et al., "Core Transform Design in the High Efficiency
//     Video Coding (HEVC) Standard", IEEE JSTSP 2013). Odd rows are
//     antisymmetric about the middle column, so they need only the N/2
//     differences x[n]-x[N-1-n]. Even rows are symmetric, and row 2j of
//     the N-point matrix is row j of the N/2-point one, so the even
//     coefficients are the N/2-point transform of the sums
//     x[n]+x[N-1-n], split again down to 4 points. That is 8, 24, 88
//     and 344 multiplies at ws 4, 8, 16 and 32, against 16, 64, 256 and
//     1024 for the product, and exactly the same sums.
func IntForwardInto(dst []int32, x []int16, ws int) {
	if !ValidWindow(ws) {
		panic(fmt.Sprintf("dct: unsupported window size %d", ws))
	}
	if len(x) != ws {
		panic(fmt.Sprintf("dct: IntForward window %d, got %d samples", ws, len(x)))
	}
	if len(dst) != ws {
		panic(fmt.Sprintf("dct: IntForwardInto dst length %d, want %d", len(dst), ws))
	}
	if isFlat(x) {
		dst[0] = int32(x[0])
		clear(dst[1:])
		return
	}
	// int32 holds every value the butterfly forms. A sum or difference
	// of samples spans at most 16 of them, so it is at most 16*32768 =
	// 2^19 in magnitude. A dot product, and each of its partial sums,
	// adds up terms of one coefficient's sum over n of M[k][n]*x[n], so
	// it is at most 32*90*32768 < 2^27.
	var in, acc [32]int32
	for i, s := range x {
		in[i] = int32(s)
	}
	switch ws {
	case 4:
		forward4((*[4]int32)(acc[:4]), (*[4]int32)(in[:4]))
	case 8:
		forward8((*[8]int32)(acc[:8]), (*[8]int32)(in[:8]))
	case 16:
		forward16((*[16]int32)(acc[:16]), (*[16]int32)(in[:16]))
	default:
		forward32(&acc, &in)
	}
	sf := ForwardShift(ws)
	rnd := int32(1) << (sf - 1)
	for k, a := range acc[:ws] {
		if a >= 0 {
			dst[k] = (a + rnd) >> sf
		} else {
			dst[k] = -((-a + rnd) >> sf)
		}
	}
}

// isFlat reports whether every sample of x equals the first.
func isFlat(x []int16) bool {
	for _, s := range x[1:] {
		if s != x[0] {
			return false
		}
	}
	return true
}

// Half rows of the matrices for the butterfly: oddN[j] holds the first
// N/2 entries of row 2j+1 of the N-point matrix, which fix the rest by
// antisymmetry, and even4[j] those of row 2j of the 4-point matrix,
// which is symmetric. Row 2j of the N-point matrix is row j of the
// N/2-point one, so these are all the butterfly needs.
var (
	even4 [2][2]int32
	odd4  [2][2]int32
	odd8  [4][4]int32
	odd16 [8][8]int32
	odd32 [16][16]int32
)

func init() {
	// entry is [k][n] of the size-point matrix, as flatMatrices has it.
	entry := func(size, k, n int) int32 { return coeff((2*n + 1) * k * (32 / size)) }
	for j := range 2 {
		for n := range 2 {
			even4[j][n] = entry(4, 2*j, n)
			odd4[j][n] = entry(4, 2*j+1, n)
		}
	}
	for j := range odd8 {
		for n := range odd8[j] {
			odd8[j][n] = entry(8, 2*j+1, n)
		}
	}
	for j := range odd16 {
		for n := range odd16[j] {
			odd16[j][n] = entry(16, 2*j+1, n)
		}
	}
	for j := range odd32 {
		for n := range odd32[j] {
			odd32[j][n] = entry(32, 2*j+1, n)
		}
	}
}

// forward4 through forward32 set y[k] to the unrounded sum over n of
// M[k][n]*x[n] for their size's matrix M. The odd rows' dot products
// are written out term by term because the compiler does not unroll
// loops.
func forward4(y, x *[4]int32) {
	e0, e1 := x[0]+x[3], x[1]+x[2]
	o0, o1 := x[0]-x[3], x[1]-x[2]
	y[0] = even4[0][0]*e0 + even4[0][1]*e1
	y[1] = odd4[0][0]*o0 + odd4[0][1]*o1
	y[2] = even4[1][0]*e0 + even4[1][1]*e1
	y[3] = odd4[1][0]*o0 + odd4[1][1]*o1
}

func forward8(y, x *[8]int32) {
	var e, o, ye [4]int32
	for n := range e {
		e[n], o[n] = x[n]+x[7-n], x[n]-x[7-n]
	}
	forward4(&ye, &e)
	for j := range ye {
		c := &odd8[j]
		y[2*j] = ye[j]
		y[2*j+1] = c[0]*o[0] + c[1]*o[1] + c[2]*o[2] + c[3]*o[3]
	}
}

func forward16(y, x *[16]int32) {
	var e, o, ye [8]int32
	for n := range e {
		e[n], o[n] = x[n]+x[15-n], x[n]-x[15-n]
	}
	forward8(&ye, &e)
	for j := range ye {
		c := &odd16[j]
		y[2*j] = ye[j]
		y[2*j+1] = c[0]*o[0] + c[1]*o[1] + c[2]*o[2] + c[3]*o[3] +
			c[4]*o[4] + c[5]*o[5] + c[6]*o[6] + c[7]*o[7]
	}
}

func forward32(y, x *[32]int32) {
	var e, o, ye [16]int32
	for n := range e {
		e[n], o[n] = x[n]+x[31-n], x[n]-x[31-n]
	}
	forward16(&ye, &e)
	for j := range ye {
		c := &odd32[j]
		y[2*j] = ye[j]
		y[2*j+1] = c[0]*o[0] + c[1]*o[1] + c[2]*o[2] + c[3]*o[3] +
			c[4]*o[4] + c[5]*o[5] + c[6]*o[6] + c[7]*o[7] +
			c[8]*o[8] + c[9]*o[9] + c[10]*o[10] + c[11]*o[11] +
			c[12]*o[12] + c[13]*o[13] + c[14]*o[14] + c[15]*o[15]
	}
}

// IntInverse computes the integer IDCT:
//
//	x[n] = clamp( round( sum_k M[k][n]*y[k] / 2^InverseShift ) )
//
// This is the operation the hardware decompression engine performs; the
// engine's shift-add emulation in internal/engine produces bit-identical
// results (it is checked against this function in tests).
func IntInverse(y []int32, ws int) []int16 {
	x := make([]int16, ws)
	IntInverseInto(x, y, ws)
	return x
}

// IntInverseInto is IntInverse writing into dst (len ws). It performs
// no allocations. Rows with a zero coefficient are skipped whole, the
// same gating the hardware applies to its adder columns.
func IntInverseInto(dst []int16, y []int32, ws int) {
	m := MatrixFlat(ws)
	if len(y) != ws {
		panic(fmt.Sprintf("dct: IntInverse window %d, got %d samples", ws, len(y)))
	}
	if len(dst) != ws {
		panic(fmt.Sprintf("dct: IntInverseInto dst length %d, want %d", len(dst), ws))
	}
	const rnd = int64(1) << (InverseShift - 1)
	// Accumulate row-major over the nonzero coefficients: thresholded
	// windows are sparse, so skipping a zero y[k] skips a whole matrix
	// row. int64 addition is exact, so the reordering relative to the
	// column-major definition is bit-identical.
	var accBuf [32]int64
	acc := accBuf[:ws]
	for i := range acc {
		acc[i] = 0
	}
	for k := 0; k < ws; k++ {
		c := int64(y[k])
		if c == 0 {
			continue
		}
		row := m[k*ws : (k+1)*ws]
		for n := 0; n < ws; n++ {
			acc[n] += int64(row[n]) * c
		}
	}
	for n := 0; n < ws; n++ {
		a := acc[n]
		var v int64
		if a >= 0 {
			v = (a + rnd) >> InverseShift
		} else {
			v = -((-a + rnd) >> InverseShift)
		}
		dst[n] = clamp16(v)
	}
}

func clamp16(v int64) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32767 {
		// -32768 is reserved for RLE codeword signatures.
		return -32767
	}
	return int16(v)
}
