// Benchmark harness: one testing.B benchmark per table and figure of
// the paper (BenchmarkFig*/BenchmarkTable* regenerate the artifact and
// report its headline numbers as custom metrics), plus microbenchmarks
// of the hot paths (integer DCT, RLE, decompression engine, compiler).
//
//	go test -bench=. -benchmem
package compaqt_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"compaqt"
	"compaqt/internal/compress"
	"compaqt/internal/core"
	"compaqt/internal/dct"
	"compaqt/internal/device"
	"compaqt/internal/engine"
	"compaqt/internal/experiments"
	"compaqt/internal/rle"
	"compaqt/internal/wave"
)

// benchExperiment runs one registered experiment driver per iteration.
func benchExperiment(b *testing.B, id string) *experiments.Table {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab, err = e.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

// metric parses a numeric cell into a reported metric.
func metric(b *testing.B, tab *experiments.Table, row, col int, name string) {
	b.Helper()
	var v float64
	if _, err := fmt.Sscanf(tab.Rows[row][col], "%f", &v); err == nil {
		b.ReportMetric(v, name)
	}
}

func BenchmarkTableI(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig5a(b *testing.B)  { benchExperiment(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)  { benchExperiment(b, "fig5b") }

func BenchmarkFig5c(b *testing.B) {
	tab := benchExperiment(b, "fig5c")
	metric(b, tab, 0, 1, "qaoa40-peak-GB/s")
	metric(b, tab, 2, 1, "surface81-peak-GB/s")
}

func BenchmarkFig5d(b *testing.B) {
	tab := benchExperiment(b, "fig5d")
	metric(b, tab, 1, 1, "bw-bound-qubits")
}

func BenchmarkFig7a(b *testing.B) { benchExperiment(b, "fig7a") }

func BenchmarkFig7b(b *testing.B) {
	tab := benchExperiment(b, "fig7b")
	metric(b, tab, 3, 2, "intdctw-ws16-overall-R")
}

func BenchmarkFig7c(b *testing.B) { benchExperiment(b, "fig7c") }

func BenchmarkFig9(b *testing.B) {
	tab := benchExperiment(b, "fig9")
	metric(b, tab, len(tab.Rows)-2, 1, "baseline-RB-fidelity")
}

func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

func BenchmarkFig15(b *testing.B) {
	if testing.Short() {
		b.Skip("80K-shot fidelity simulation")
	}
	tab := benchExperiment(b, "fig15")
	metric(b, tab, 0, 3, "swap-ws16-norm-fidelity")
}

func BenchmarkFig16(b *testing.B) {
	tab := benchExperiment(b, "fig16")
	metric(b, tab, 1, 2, "dctw-fmax-ratio")
}

func BenchmarkFig17a(b *testing.B) { benchExperiment(b, "fig17a") }

func BenchmarkFig17b(b *testing.B) {
	tab := benchExperiment(b, "fig17b")
	metric(b, tab, 2, 1, "ws16-logical-qubits")
}

func BenchmarkFig18(b *testing.B) {
	tab := benchExperiment(b, "fig18")
	metric(b, tab, 0, 4, "uncompressed-total-mW")
	metric(b, tab, 2, 4, "ws16-total-mW")
}

func BenchmarkFig19(b *testing.B) {
	tab := benchExperiment(b, "fig19")
	metric(b, tab, 2, 4, "ws16-adaptive-total-mW")
}

func BenchmarkFig20(b *testing.B) { benchExperiment(b, "fig20") }

func BenchmarkTableIII(b *testing.B) {
	if testing.Short() {
		b.Skip("12 RB runs")
	}
	benchExperiment(b, "table3")
}

func BenchmarkTableIV(b *testing.B) { benchExperiment(b, "table4") }

func BenchmarkTableV(b *testing.B) {
	tab := benchExperiment(b, "table5")
	metric(b, tab, 2, 2, "ws16-qubit-gain")
}

func BenchmarkTableVII(b *testing.B) {
	tab := benchExperiment(b, "table7")
	metric(b, tab, 3, 3, "guadalupe-avg-R")
}

func BenchmarkTableVIII(b *testing.B) { benchExperiment(b, "table8") }
func BenchmarkTableIX(b *testing.B)   { benchExperiment(b, "table9") }

// Microbenchmarks of the hot paths.

// BenchmarkIntForward measures the integer forward transform kernel
// (the Into variant the compile loop runs) at every supported window
// size: wsN on a ramp window, which takes the butterfly, and flat/wsN
// on a flat one, which takes the shortcut (about 70% of a recompiled
// library's windows are flat tops). 0 allocs/op is part of the
// contract.
func BenchmarkIntForward(b *testing.B) {
	for _, ws := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("ws%d", ws), func(b *testing.B) {
			x := make([]int16, ws)
			for i := range x {
				x[i] = int16(900*i - 8000)
			}
			benchIntForward(b, x)
		})
	}
	for _, ws := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("flat/ws%d", ws), func(b *testing.B) {
			x := make([]int16, ws)
			for i := range x {
				x[i] = 12345
			}
			benchIntForward(b, x)
		})
	}
}

func benchIntForward(b *testing.B, x []int16) {
	y := make([]int32, len(x))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dct.IntForwardInto(y, x, len(x))
	}
}

// BenchmarkIntInverse measures the integer inverse transform kernel
// (the Into variant the decompress loop runs) at every supported window
// size. 0 allocs/op is part of the contract.
func BenchmarkIntInverse(b *testing.B) {
	for _, ws := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("ws%d", ws), func(b *testing.B) {
			y := make([]int32, ws)
			x := make([]int16, ws)
			y[0], y[1], y[2] = 20000, -3000, 400
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dct.IntInverseInto(x, y, ws)
			}
		})
	}
}

// BenchmarkForwardFast measures the plan-cached float DCT-II kernel
// (ForwardInto): the cosine-table path at window sizes, the FFT path at
// whole-waveform lengths. 0 allocs/op once the plan is cached (the FFT
// scratch is pooled, so steady state reports 0).
func BenchmarkForwardFast(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 256, 1024, 2752} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			x := make([]float64, n)
			y := make([]float64, n)
			for i := range x {
				x[i] = float64(i%17) / 17
			}
			dct.ForwardInto(y, x) // warm the plan cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dct.ForwardInto(y, x)
			}
		})
	}
}

// BenchmarkForward measures the float DCT-II at window sizes and at the
// long whole-waveform lengths the DCT-N variant transforms (2752 is the
// Guadalupe CR pulse length — deliberately not a power of two).
func BenchmarkForward(b *testing.B) {
	for _, n := range []int{8, 16, 32, 256, 1024, 2752} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(i%17) / 17
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dct.Forward(x)
			}
		})
	}
}

// BenchmarkEngineRunChannel streams a compressed CR pulse channel
// through the decompression pipeline model.
func BenchmarkEngineRunChannel(b *testing.B) {
	m := device.Guadalupe()
	p, err := m.CXPulse(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	f := p.Waveform.Quantize()
	c, err := compress.Compress(f, compress.Options{Variant: compress.IntDCTW, WindowSize: 16})
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.RunChannel(&c.I, f.Samples()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntDCTForward16(b *testing.B) {
	x := make([]int16, 16)
	for i := range x {
		x[i] = int16(1000 * i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dct.IntForward(x, 16)
	}
}

func BenchmarkIntIDCT16(b *testing.B) {
	y := make([]int32, 16)
	y[0], y[1], y[2] = 20000, -3000, 400
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dct.IntInverse(y, 16)
	}
}

func BenchmarkEngineIDCTShiftAdd16(b *testing.B) {
	e, err := engine.New(16)
	if err != nil {
		b.Fatal(err)
	}
	y := make([]int32, 16)
	y[0], y[1], y[2] = 20000, -3000, 400
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.IDCT(y)
	}
}

func BenchmarkRLEEncodeWindow(b *testing.B) {
	win := make([]int16, 16)
	win[0], win[1] = 20000, -3000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rle.EncodeWindow(win)
	}
}

func BenchmarkCompressDRAG(b *testing.B) {
	f := wave.DRAG("X", 4.54e9, wave.DRAGParams{
		Amp: 0.45, Duration: 35.2e-9, Sigma: 8.8e-9, Beta: 0.6,
	}).Quantize()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compress.Compress(f, compress.Options{Variant: compress.IntDCTW, WindowSize: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressEngineCR(b *testing.B) {
	m := device.Guadalupe()
	p, err := m.CXPulse(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := compress.Compress(p.Waveform.Quantize(), compress.Options{Variant: compress.IntDCTW, WindowSize: 16})
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var samples int64
	for i := 0; i < b.N; i++ {
		_, st, err := e.Run(c)
		if err != nil {
			b.Fatal(err)
		}
		samples = st.SamplesOut
	}
	b.ReportMetric(float64(samples), "samples/op")
}

func BenchmarkCompileGuadalupeLibrary(b *testing.B) {
	m := device.Guadalupe()
	compiler := &core.Compiler{WindowSize: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		img, err := compiler.Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(img.Stats().PackedRatio, "packed-R")
		}
	}
}

// benchServiceCompile compiles the Guadalupe library (the bench_test
// corpus) through the public Service with the given options.
func benchServiceCompile(b *testing.B, opts ...compaqt.Option) {
	b.Helper()
	m := device.Guadalupe()
	svc, err := compaqt.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := svc.Compile(ctx, m)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(img.Stats().PackedRatio, "packed-R")
		}
	}
}

func BenchmarkServiceCompileSerial(b *testing.B) {
	benchServiceCompile(b, compaqt.WithWindow(16), compaqt.WithParallelism(1))
}

func BenchmarkServiceCompileParallel(b *testing.B) {
	benchServiceCompile(b, compaqt.WithWindow(16), compaqt.WithParallelism(runtime.NumCPU()))
}

// BenchmarkServiceCompileSerialDCTN is the cold-compile workload the
// whole-waveform float DCT dominates: every pulse of the library —
// including the >2700-sample CR pulses — goes through a full-length
// DCT-II per channel.
func BenchmarkServiceCompileSerialDCTN(b *testing.B) {
	benchServiceCompile(b, compaqt.WithCodec("dct-n"), compaqt.WithParallelism(1))
}

// BenchmarkServiceCompileCached is BenchmarkServiceCompileSerial with
// the content-addressed compile cache on, measured in the steady state
// (cache warmed before the timer): the workload every calibration
// cycle presents when the pulse library barely changes. The time/op
// delta against Serial is the cache win on fully-repeated content.
func BenchmarkServiceCompileCached(b *testing.B) {
	m := device.Guadalupe()
	svc, err := compaqt.New(compaqt.WithWindow(16), compaqt.WithParallelism(1), compaqt.WithCache(0))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.Compile(ctx, m); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Compile(ctx, m); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(svc.CacheStats().HitRate(), "hit-rate")
}

// BenchmarkServiceCompileBatch compiles a batch with 75% repeated
// pulses (the Guadalupe library replicated 4x): within-batch dedup
// alone — no cross-call cache — so each iteration encodes one library
// but emits four copies' worth of entries.
func BenchmarkServiceCompileBatch(b *testing.B) {
	m := device.Guadalupe()
	lib := m.Library()
	pulses := make([]*device.Pulse, 0, 4*len(lib))
	for r := 0; r < 4; r++ {
		pulses = append(pulses, lib...)
	}
	svc, err := compaqt.New(compaqt.WithWindow(16))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := svc.CompileBatch(ctx, m.Name, pulses)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(img.Entries)), "entries")
		}
	}
}

func BenchmarkFidelityAwareCompression(b *testing.B) {
	f := wave.DRAG("X", 4.54e9, wave.DRAGParams{
		Amp: 0.45, Duration: 35.2e-9, Sigma: 8.8e-9, Beta: 0.6,
	}).Quantize()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compress.FidelityAware(f, compress.Options{Variant: compress.IntDCTW, WindowSize: 16}, 5e-6); err != nil {
			b.Fatal(err)
		}
	}
}
