package dct

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// maxAbsDiff returns the largest absolute elementwise difference.
func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestPlanForwardMatchesNaiveOracle(t *testing.T) {
	// The fast float DCT must match the naive double loop within 1e-9
	// across random lengths, including non-powers-of-two on both sides
	// of the table/FFT cutover.
	rng := rand.New(rand.NewSource(11))
	lengths := []int{1, 2, 3, 5, 7, 8, 16, 31, 32, 33, 63, 64, 65, 100, 128, 255, 256, 500, 1024, 1777, 2752}
	for trial := 0; trial < 8; trial++ {
		lengths = append(lengths, 1+rng.Intn(3000))
	}
	for _, n := range lengths {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		fast := Forward(x)
		naive := NaiveForward(x)
		if d := maxAbsDiff(fast, naive); d > 1e-9 {
			t.Errorf("n=%d: forward deviates from oracle by %g", n, d)
		}
	}
}

func TestPlanInverseMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	lengths := []int{1, 2, 3, 5, 8, 17, 64, 65, 129, 512, 1000, 2752}
	for trial := 0; trial < 8; trial++ {
		lengths = append(lengths, 1+rng.Intn(3000))
	}
	for _, n := range lengths {
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.Float64()*2 - 1
		}
		fast := Inverse(y)
		naive := NaiveInverse(y)
		if d := maxAbsDiff(fast, naive); d > 1e-9 {
			t.Errorf("n=%d: inverse deviates from oracle by %g", n, d)
		}
	}
}

func TestPlanRoundTripLongLengths(t *testing.T) {
	// Forward∘Inverse must reconstruct at FFT lengths too (the n<=128
	// cases are covered by TestForwardInverseRoundTrip).
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{129, 512, 1000, 2048, 2752} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		got := Inverse(Forward(x))
		if d := maxAbsDiff(got, x); d > 1e-9 {
			t.Errorf("n=%d: roundtrip error %g", n, d)
		}
	}
}

func TestForwardIntoMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 4, 16, 64, 65, 300, 1024} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		dst := make([]float64, n)
		ForwardInto(dst, x)
		want := Forward(x)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: ForwardInto[%d] = %g, Forward = %g", n, i, dst[i], want[i])
			}
		}
		InverseInto(dst, want)
		wantX := Inverse(want)
		for i := range wantX {
			if dst[i] != wantX[i] {
				t.Fatalf("n=%d: InverseInto[%d] = %g, Inverse = %g", n, i, dst[i], wantX[i])
			}
		}
	}
}

func TestMatrixFlatMatchesMatrix(t *testing.T) {
	for _, ws := range []int{4, 8, 16, 32} {
		flat := MatrixFlat(ws)
		rows := Matrix(ws)
		for k := 0; k < ws; k++ {
			for n := 0; n < ws; n++ {
				if flat[k*ws+n] != rows[k][n] {
					t.Fatalf("ws=%d [%d][%d]: flat %d != rows %d", ws, k, n, flat[k*ws+n], rows[k][n])
				}
			}
		}
	}
}

func TestIntKernelsZeroAllocs(t *testing.T) {
	// The Into kernels must not touch the heap — the contract the
	// compile hot loop depends on.
	for _, ws := range []int{4, 8, 16, 32} {
		x := make([]int16, ws)
		y := make([]int32, ws)
		for i := range x {
			x[i] = int16(500*i - 3000)
		}
		if a := testing.AllocsPerRun(200, func() { IntForwardInto(y, x, ws) }); a != 0 {
			t.Errorf("ws=%d: IntForwardInto allocates %.1f/op", ws, a)
		}
		if a := testing.AllocsPerRun(200, func() { IntInverseInto(x, y, ws) }); a != 0 {
			t.Errorf("ws=%d: IntInverseInto allocates %.1f/op", ws, a)
		}
	}
}

func TestFloatTableKernelZeroAllocs(t *testing.T) {
	// Table-path float transforms (window sizes) are also allocation-
	// free once the plan is cached.
	x := make([]float64, 32)
	y := make([]float64, 32)
	PlanFor(32) // warm the plan cache
	if a := testing.AllocsPerRun(200, func() { ForwardInto(y, x) }); a != 0 {
		t.Errorf("ForwardInto(32) allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(200, func() { InverseInto(x, y) }); a != 0 {
		t.Errorf("InverseInto(32) allocates %.1f/op", a)
	}
}

func TestPlanConcurrentUse(t *testing.T) {
	// One shared plan hammered from many goroutines (-race exercises the
	// scratch pool). Each goroutine checks its own round trip.
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 30; iter++ {
				n := []int{96, 129, 300, 1024}[iter%4]
				p := PlanFor(n)
				x := make([]float64, n)
				for i := range x {
					x[i] = rng.Float64()*2 - 1
				}
				got := p.Inverse(p.Forward(x))
				if d := maxAbsDiff(got, x); d > 1e-9 {
					t.Errorf("n=%d: concurrent roundtrip error %g", n, d)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

func TestPlanForReturnsSharedInstance(t *testing.T) {
	if PlanFor(777) != PlanFor(777) {
		t.Error("PlanFor built two plans for the same length")
	}
}
