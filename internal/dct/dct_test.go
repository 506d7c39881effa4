package dct

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestForwardInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 8, 16, 33, 128} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		got := Inverse(Forward(x))
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-12 {
				t.Fatalf("n=%d: roundtrip error %g at %d", n, got[i]-x[i], i)
			}
		}
	}
}

func TestForwardParseval(t *testing.T) {
	// The orthonormal DCT preserves energy.
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 64)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	y := Forward(x)
	ex, ey := 0.0, 0.0
	for i := range x {
		ex += x[i] * x[i]
		ey += y[i] * y[i]
	}
	if math.Abs(ex-ey) > 1e-10 {
		t.Errorf("Parseval violated: %g vs %g", ex, ey)
	}
}

func TestForwardDCComponent(t *testing.T) {
	// A constant signal transforms to a single DC coefficient.
	x := []float64{0.5, 0.5, 0.5, 0.5}
	y := Forward(x)
	if math.Abs(y[0]-0.5*2) > 1e-12 { // sqrt(1/4)*4*0.5 = 1.0
		t.Errorf("DC coefficient = %g, want 1.0", y[0])
	}
	for k := 1; k < 4; k++ {
		if math.Abs(y[k]) > 1e-12 {
			t.Errorf("AC coefficient %d = %g, want 0", k, y[k])
		}
	}
}

func TestEnergyCompactionOnSmoothSignal(t *testing.T) {
	// Smooth (Gaussian-like) signals concentrate energy in the first
	// few coefficients -- the property COMPAQT exploits (Sec. IV-A).
	n := 16
	x := make([]float64, n)
	for i := range x {
		u := (float64(i) - float64(n-1)/2) / 4
		x[i] = math.Exp(-u * u / 2)
	}
	y := Forward(x)
	var head, total float64
	for k, v := range y {
		total += v * v
		if k < 3 {
			head += v * v
		}
	}
	if head/total < 0.99 {
		t.Errorf("first 3 coefficients carry %.4f of energy, want > 0.99", head/total)
	}
}

func TestHEVCMatrix4(t *testing.T) {
	want := [][]int32{
		{64, 64, 64, 64},
		{83, 36, -36, -83},
		{64, -64, -64, 64},
		{36, -83, 83, -36},
	}
	got := Matrix(4)
	for k := range want {
		for n := range want[k] {
			if got[k][n] != want[k][n] {
				t.Fatalf("Matrix(4)[%d][%d] = %d, want %d", k, n, got[k][n], want[k][n])
			}
		}
	}
}

func TestHEVCMatrix8(t *testing.T) {
	want := [][]int32{
		{64, 64, 64, 64, 64, 64, 64, 64},
		{89, 75, 50, 18, -18, -50, -75, -89},
		{83, 36, -36, -83, -83, -36, 36, 83},
		{75, -18, -89, -50, 50, 89, 18, -75},
		{64, -64, -64, 64, 64, -64, -64, 64},
		{50, -89, 18, 75, -75, -18, 89, -50},
		{36, -83, 83, -36, -36, 83, -83, 36},
		{18, -50, 75, -89, 89, -75, 50, -18},
	}
	got := Matrix(8)
	for k := range want {
		for n := range want[k] {
			if got[k][n] != want[k][n] {
				t.Fatalf("Matrix(8)[%d][%d] = %d, want %d", k, n, got[k][n], want[k][n])
			}
		}
	}
}

func TestHEVCMatrix16FirstColumn(t *testing.T) {
	// First column of the 16-point matrix is the even-index subsequence
	// of the HEVC base coefficients.
	want := []int32{64, 90, 89, 87, 83, 80, 75, 70, 64, 57, 50, 43, 36, 25, 18, 9}
	m := Matrix(16)
	for k := range want {
		if m[k][0] != want[k] {
			t.Fatalf("Matrix(16)[%d][0] = %d, want %d", k, m[k][0], want[k])
		}
	}
}

func TestHEVCMatrixNearOrthogonal(t *testing.T) {
	// M * M^T ~ N*64^2 * I. The integer approximation deviates slightly
	// off-diagonal; the HEVC standard bounds this tightly.
	for _, n := range []int{4, 8, 16, 32} {
		m := Matrix(n)
		norm := float64(n) * 64 * 64
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				var dot float64
				for c := 0; c < n; c++ {
					dot += float64(m[a][c]) * float64(m[b][c])
				}
				if a == b {
					if math.Abs(dot-norm)/norm > 0.004 {
						t.Errorf("n=%d row %d norm %g, want ~%g", n, a, dot, norm)
					}
				} else if math.Abs(dot)/norm > 0.004 {
					t.Errorf("n=%d rows %d,%d dot %g, want ~0", n, a, b, dot)
				}
			}
		}
	}
}

func TestMatrixRowSymmetry(t *testing.T) {
	// Even rows are symmetric, odd rows antisymmetric -- the property
	// the partial-butterfly decomposition (IntForwardInto here, the
	// hardware's adder network) relies on. Row 0 sums to
	// 2^ForwardShift and every other row to 0 -- the identity that lets
	// IntForwardInto return [x, 0, ..., 0] for a flat window.
	for _, n := range []int{4, 8, 16, 32} {
		m := Matrix(n)
		for k := 0; k < n; k++ {
			for c := 0; c < n/2; c++ {
				if k%2 == 0 && m[k][c] != m[k][n-1-c] {
					t.Fatalf("n=%d row %d not symmetric", n, k)
				}
				if k%2 == 1 && m[k][c] != -m[k][n-1-c] {
					t.Fatalf("n=%d row %d not antisymmetric", n, k)
				}
			}
			var sum int32
			for _, v := range m[k] {
				sum += v
			}
			want := int32(0)
			if k == 0 {
				want = 1 << ForwardShift(n)
			}
			if sum != want {
				t.Fatalf("n=%d row %d sums to %d, want %d: a flat window would no longer transform to [x, 0, ..., 0]", n, k, sum, want)
			}
		}
	}
}

func TestIntRoundTripError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, ws := range []int{4, 8, 16, 32} {
		maxErr := 0
		for trial := 0; trial < 200; trial++ {
			x := make([]int16, ws)
			for i := range x {
				x[i] = int16(rng.Intn(2*32767+1) - 32767)
			}
			y := IntForward(x, ws)
			got := IntInverse(y, ws)
			for i := range x {
				if e := abs(int(got[i]) - int(x[i])); e > maxErr {
					maxErr = e
				}
			}
		}
		// Full-scale white noise is the worst case for the integer
		// approximation (all high-frequency basis vectors active, where
		// the HEVC matrices deviate ~0.3% from orthogonal). Bound the
		// error at 1.5% of full scale; smooth waveforms do far better
		// (see TestIntRoundTripSmoothSignal).
		if maxErr > 492 {
			t.Errorf("ws=%d: max roundtrip error %d LSB, want <= 492", ws, maxErr)
		}
	}
}

func TestIntRoundTripSmoothSignal(t *testing.T) {
	// On smooth (pulse-like) windows the energy sits in the low
	// coefficients, where the integer matrices are nearly exact; this is
	// the regime COMPAQT operates in and the error is a few tens of LSB
	// (paper Fig. 7c: MSE ~1e-6 of unit amplitude).
	for _, ws := range []int{8, 16, 32} {
		x := make([]int16, ws)
		for i := range x {
			u := (float64(i) - float64(ws-1)/2) / (float64(ws) / 4)
			x[i] = int16(30000 * math.Exp(-u*u/2))
		}
		got := IntInverse(IntForward(x, ws), ws)
		for i := range x {
			if e := abs(int(got[i]) - int(x[i])); e > 128 {
				t.Errorf("ws=%d sample %d: error %d LSB, want <= 128", ws, i, e)
			}
		}
	}
}

func TestIntForwardCoefficientsFitInt16(t *testing.T) {
	// Worst case input (all full-scale) must not overflow the 16-bit
	// compressed sample storage.
	for _, ws := range []int{4, 8, 16, 32} {
		x := make([]int16, ws)
		for i := range x {
			x[i] = 32767
		}
		for _, v := range IntForward(x, ws) {
			if v > 32767 || v < -32767 {
				t.Errorf("ws=%d: coefficient %d exceeds int16", ws, v)
			}
		}
		for i := range x {
			x[i] = -32767
		}
		for _, v := range IntForward(x, ws) {
			if v > 32767 || v < -32767 {
				t.Errorf("ws=%d: coefficient %d exceeds int16", ws, v)
			}
		}
	}
}

func TestIntForwardMatchesFloatScaled(t *testing.T) {
	// The integer transform approximates the orthonormal DCT up to the
	// known scale factor 64*sqrt(N)/2^ForwardShift.
	rng := rand.New(rand.NewSource(4))
	ws := 8
	x := make([]int16, ws)
	xf := make([]float64, ws)
	for i := range x {
		x[i] = int16(rng.Intn(2*32767+1) - 32767)
		xf[i] = float64(x[i])
	}
	yi := IntForward(x, ws)
	yf := Forward(xf)
	scale := 64 * math.Sqrt(float64(ws)) / float64(int(1)<<ForwardShift(ws))
	for k := range yi {
		want := yf[k] * scale
		if math.Abs(float64(yi[k])-want) > math.Abs(want)*0.01+8 {
			t.Errorf("k=%d: int %d vs scaled float %g", k, yi[k], want)
		}
	}
}

func TestIntInverseClampReservesSignature(t *testing.T) {
	// Even a pathological coefficient vector must never emit -32768.
	y := make([]int32, 8)
	y[0] = -32767
	y[1] = -32767
	for _, v := range IntInverse(y, 8) {
		if v == math.MinInt16 {
			t.Fatal("IntInverse produced the reserved value -32768")
		}
	}
}

func TestCoefficientsDistinct(t *testing.T) {
	got := Coefficients(8)
	want := map[int32]bool{64: true, 89: true, 75: true, 50: true, 18: true, 83: true, 36: true}
	if len(got) != len(want) {
		t.Fatalf("Coefficients(8) = %v", got)
	}
	for _, v := range got {
		if !want[v] {
			t.Errorf("unexpected coefficient %d", v)
		}
	}
}

func TestValidWindow(t *testing.T) {
	for _, ws := range []int{4, 8, 16, 32} {
		if !ValidWindow(ws) {
			t.Errorf("ValidWindow(%d) = false", ws)
		}
	}
	for _, ws := range []int{0, 1, 2, 3, 5, 12, 64} {
		if ValidWindow(ws) {
			t.Errorf("ValidWindow(%d) = true", ws)
		}
	}
}

func TestForwardShift(t *testing.T) {
	cases := map[int]uint{4: 8, 8: 9, 16: 10, 32: 11}
	for n, want := range cases {
		if got := ForwardShift(n); got != want {
			t.Errorf("ForwardShift(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestQuickIntRoundTripSmallSignals(t *testing.T) {
	// Property: for small-amplitude windows, the reconstruction error
	// stays bounded by a few LSBs (no amplitude-dependent blowup).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]int16, 16)
		for i := range x {
			x[i] = int16(rng.Intn(2001) - 1000)
		}
		got := IntInverse(IntForward(x, 16), 16)
		for i := range x {
			if abs(int(got[i])-int(x[i])) > 48 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
