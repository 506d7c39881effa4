// Package compaqt reproduces "COMPAQT: Compressed Waveform Memory
// Architecture for Scalable Qubit Control" (Maurya & Tannu, MICRO
// 2022, arXiv:2212.03897) as a production-quality Go library.
//
// The root package is the compile/playback front end: a Service built
// from functional options pairs a pluggable compression codec with a
// concurrent compile pipeline and the hardware decompression-engine
// model.
//
//	svc, err := compaqt.New(
//		compaqt.WithCodec("intdct-w"),
//		compaqt.WithWindow(16),
//		compaqt.WithMSETarget(5e-6),
//		compaqt.WithParallelism(runtime.NumCPU()),
//		compaqt.WithCache(4096), // content-addressed compile cache
//	)
//	img, err := svc.Compile(ctx, qctrl.Guadalupe())
//	img, err = svc.CompileBatch(ctx, m.Name, pulses) // dedup within the batch
//	st := svc.CacheStats()                      // hits, misses, bytes saved
//	n, err := svc.CompileTo(ctx, m, file)       // persist the image to a file
//	img, err = svc.OpenImage(file)              // ... and load it back
//	wave, stats, err := svc.Play(ctx, "X_q3")   // hardware-model playback
//
// Pulse libraries are highly redundant — the same calibrated waveforms
// recur across circuits, shots and calibration cycles — so WithCache
// hashes each quantized pulse together with the codec's fingerprint
// (and fidelity target) into a sharded LRU; repeated content skips the
// encoders and is byte-identical to a fresh compile. CompileBatch
// additionally deduplicates inside one submission before fanning the
// unique work out to the worker pool. WithObserver installs a metrics
// hook that receives one CompileEvent per compile call — the
// integration point the HTTP serving layer (internal/server,
// cmd/compaqt-serve, with its typed client in compaqt/client) builds
// its /v1/stats endpoint on. See ARCHITECTURE.md for the layer diagram
// and data flow.
//
// A compiled image persists as a file: CompileTo (or Image.WriteTo)
// writes it, OpenImage (or ReadImage) loads it back byte-identically.
// Served persistence is the compile server's job: `compaqt-serve
// -store-dir` writes every named image through to a crash-safe
// content-addressed store (atomic temp+fsync+rename publishes,
// size-bounded LRU GC, keyed by the same content identity) and serves
// it from mmap'd files as GET /v1/images/{name}, warm across restarts
// with zero recompiles.
//
// The public subpackages:
//
//   - codec: the Codec interface, the process-wide registry, and the
//     five paper variants (delta, dict, dct-n, dct-w, intdct-w); new
//     backends plug in via codec.Register
//   - client: typed client for the compile server plus the HTTP API's
//     JSON wire types
//   - waveform: calibrated pulse envelopes (DRAG, GaussianSquare, ...),
//     fixed-point quantization, FDM, error metrics
//   - qctrl: the evaluated machines with seeded calibrations, the RFSoC
//     and cryo-ASIC controller models, banked waveform memory, and the
//     decompression engine
//   - circuit: OpenQASM 2.0, transpilation, routing, scheduling,
//     simulation, and the Table VI benchmarks
//   - qec: surface-code patches and syndrome-extraction workloads
//   - fidelity: randomized benchmarking and coherent-error integration
//   - experiments: one driver per table and figure of the paper
//
// The implementation lives under internal/ (wave, device, dct, csd,
// rle, compress, cache, membank, engine, hwmodel, controller, quantum,
// clifford, circuit, surface, core, experiments); the public packages
// alias those types, so values flow freely across the boundary.
//
// Run `go test -bench=. -benchmem` (or cmd/compaqt-report) to
// regenerate the paper's evaluation; see README.md for a quickstart.
package compaqt
