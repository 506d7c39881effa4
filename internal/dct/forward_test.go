package dct

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// matrixForward is the forward transform as its definition states it:
// the whole matrix product with int64 sums and symmetric rounding. It
// is the oracle IntForwardInto is tested against.
func matrixForward(dst []int32, x []int16, ws int) {
	m := MatrixFlat(ws)
	sf := ForwardShift(ws)
	rnd := int64(1) << (sf - 1)
	for k := 0; k < ws; k++ {
		var acc int64
		row := m[k*ws : (k+1)*ws]
		for n := 0; n < ws; n++ {
			acc += int64(row[n]) * int64(x[n])
		}
		if acc >= 0 {
			dst[k] = int32((acc + rnd) >> sf)
		} else {
			dst[k] = int32(-((-acc + rnd) >> sf))
		}
	}
}

// checkForward fails t unless IntForwardInto and IntForward both give
// the oracle's coefficients for window x.
func checkForward(t *testing.T, x []int16) {
	t.Helper()
	ws := len(x)
	var wantBuf, gotBuf [32]int32
	want, got := wantBuf[:ws], gotBuf[:ws]
	matrixForward(want, x, ws)
	for k := range got {
		got[k] = -1 // stale coefficients of an earlier window
	}
	IntForwardInto(got, x, ws)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("ws=%d x=%v: IntForwardInto[%d] = %d, oracle %d", ws, x, k, got[k], want[k])
		}
	}
	for k, v := range IntForward(x, ws) {
		if v != want[k] {
			t.Fatalf("ws=%d x=%v: IntForward[%d] = %d, oracle %d", ws, x, k, v, want[k])
		}
	}
}

// edgeLevels are the flat levels every size is checked at: both ends
// of the sample range, including -32768, which compression never
// produces but the kernel accepts, and zero.
var edgeLevels = []int16{math.MinInt16, -32767, 0, 32767}

// flatWindows returns, for each level v, the flat window of size ws at
// v and the near-flat ones with one sample at v-1 or v+1 (where that
// is an int16), at each of positions: the flat shortcut's boundary.
func flatWindows(ws int, levels []int16, positions []int) [][]int16 {
	var out [][]int16
	for _, v := range levels {
		flat := make([]int16, ws)
		for i := range flat {
			flat[i] = v
		}
		out = append(out, flat)
		for _, p := range positions {
			for _, u := range []int{int(v) - 1, int(v) + 1} {
				if u >= math.MinInt16 && u <= math.MaxInt16 {
					x := append([]int16(nil), flat...)
					x[p] = int16(u)
					out = append(out, x)
				}
			}
		}
	}
	return out
}

// alternatingWindows returns windows of size ws that alternate between
// two extremes, the largest sums the odd rows can form.
func alternatingWindows(ws int) [][]int16 {
	var out [][]int16
	for _, a := range []int16{math.MinInt16, -32767, 32767} {
		for _, b := range []int16{math.MinInt16, -32767, 0, 32767} {
			if a == b {
				continue
			}
			x := make([]int16, ws)
			for i := range x {
				x[i] = a
				if i%2 == 1 {
					x[i] = b
				}
			}
			out = append(out, x)
		}
	}
	return out
}

// stepWindows returns the two-level windows of size ws: level a up to
// each position p in 1..ws-1, level b from there on.
func stepWindows(ws int) [][]int16 {
	levels := []int16{math.MinInt16, -32767, -20000, -1, 0, 1, 12345, 32767}
	var out [][]int16
	for _, a := range levels {
		for _, b := range levels {
			if a == b {
				continue
			}
			for p := 1; p < ws; p++ {
				x := make([]int16, ws)
				for i := range x {
					x[i] = a
					if i >= p {
						x[i] = b
					}
				}
				out = append(out, x)
			}
		}
	}
	return out
}

func TestIntForwardMatchesMatrixOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, ws := range []int{4, 8, 16, 32} {
		levels := append([]int16(nil), edgeLevels...)
		for range 20 {
			levels = append(levels, int16(rng.Intn(1<<16)-1<<15))
		}
		positions := make([]int, ws)
		for p := range positions {
			positions[p] = p
		}
		for _, x := range flatWindows(ws, levels, positions) {
			checkForward(t, x)
		}
		for _, x := range stepWindows(ws) {
			checkForward(t, x)
		}
		for _, x := range alternatingWindows(ws) {
			checkForward(t, x)
		}
		x := make([]int16, ws)
		for range 2000 {
			for i := range x {
				x[i] = int16(rng.Intn(1<<16) - 1<<15)
			}
			checkForward(t, x)
		}
		// The inverse's two entry points agree on the coefficients of
		// the last random window.
		y := IntForward(x, ws)
		xdst := make([]int16, ws)
		IntInverseInto(xdst, y, ws)
		for i, v := range IntInverse(y, ws) {
			if xdst[i] != v {
				t.Fatalf("ws=%d: IntInverseInto[%d] = %d, IntInverse %d", ws, i, xdst[i], v)
			}
		}
	}
}

// FuzzIntForward checks IntForwardInto against the matrix oracle. The
// first byte picks the window size (4 << (b % 4)), and the rest fill
// the samples as little-endian int16s. Samples past the end of the
// input repeat the last one given (0 if none), as compression pads a
// channel's last window, so short inputs reach the flat shortcut.
func FuzzIntForward(f *testing.F) {
	for i, ws := range []int{4, 8, 16, 32} {
		seeds := append(flatWindows(ws, edgeLevels, []int{0, ws / 2, ws - 1}), alternatingWindows(ws)...)
		for _, x := range seeds {
			data := []byte{byte(i)}
			for _, v := range x {
				data = binary.LittleEndian.AppendUint16(data, uint16(v))
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ws := 4 << (data[0] % 4)
		samples := data[1:]
		x := make([]int16, ws)
		var last int16
		for i := range x {
			if 2*i+2 <= len(samples) {
				last = int16(binary.LittleEndian.Uint16(samples[2*i:]))
			}
			x[i] = last
		}
		checkForward(t, x)
	})
}
