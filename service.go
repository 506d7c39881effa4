package compaqt

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"compaqt/codec"
	"compaqt/internal/cache"
	"compaqt/internal/core"
	"compaqt/qctrl"
	"compaqt/waveform"
)

// Image is a compiled waveform-memory image: the compressed pulse
// library that is loaded onto the controller after a calibration cycle.
type Image = core.Image

// Entry is one compressed pulse in an image.
type Entry = core.Entry

// Stats aggregates an image's compression statistics.
type Stats = core.Stats

// ReadImage deserializes an image written by Image.WriteTo or
// Service.CompileTo: it reads r to the end and decodes the bytes with
// DecodeImageBytes.
var ReadImage = core.ReadImage

// DecodeImageBytes deserializes an image from an in-memory serialized
// form, for callers that already hold the whole image in a byte slice
// (HTTP bodies, mmap'd files): every length field is validated against
// the bytes present before each exact-size stream allocation.
var DecodeImageBytes = core.DecodeImageBytes

// Service is the compile/playback front end of the library. It pairs a
// configured codec with a machine-independent compile pipeline (fanned
// out across goroutines) and a playback path through the hardware
// decompression-engine model.
//
// A Service is safe for concurrent use: compilation shares the
// stateless codec, the compile cache is internally striped, and
// playback state (the active image and the engine cache) is guarded
// internally.
type Service struct {
	cfg config
	cdc codec.Codec

	// cache, when non-nil, is the content-addressed compile cache
	// (WithCache): quantized waveforms are digested together with
	// fingerprint and looked up before the codec runs. Cached
	// Compressed values are immutable and shared across hits.
	cache *cache.LRU
	// fingerprint is the codec's stable cache identity (codec name +
	// params); it is folded into every content digest.
	fingerprint string

	// jobs feeds the persistent worker pool (see pool); poolOnce
	// starts the workers on first parallel compile.
	poolOnce sync.Once
	jobs     chan poolJob

	mu      sync.RWMutex
	img     *Image
	engines map[int]*qctrl.Engine
}

// New builds a Service from functional options. With no options it
// compiles with int-DCT-W, window 16, the default threshold, and
// NumCPU-wide parallelism.
func New(opts ...Option) (*Service, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	cdc, err := codec.New(cfg.codecName, cfg.params)
	if err != nil {
		return nil, err
	}
	if cfg.targetMSE > 0 {
		if cfg.params.Threshold != 0 {
			return nil, fmt.Errorf("compaqt: WithThreshold and a fidelity/MSE target are mutually exclusive")
		}
		if _, ok := cdc.(codec.FidelityEncoder); !ok {
			return nil, fmt.Errorf("compaqt: codec %q does not support fidelity targeting", cdc.Name())
		}
	}
	s := &Service{cfg: cfg, cdc: cdc, engines: map[int]*qctrl.Engine{}}
	s.fingerprint = codecFingerprint(cdc)
	if cfg.cacheSize > 0 {
		s.cache = cache.NewLRU(cfg.cacheSize)
	}
	return s, nil
}

// codecFingerprint resolves a codec's cache identity: CacheKey for
// Fingerprinter implementations, the registry name otherwise. The name
// fallback is safe because a Service's cache and batch dedup never mix
// codec configurations — each Service holds exactly one codec instance.
func codecFingerprint(c codec.Codec) string {
	if f, ok := c.(codec.Fingerprinter); ok {
		return f.CacheKey()
	}
	return c.Name()
}

// Codec returns the service's configured compression backend.
func (s *Service) Codec() codec.Codec { return s.cdc }

// CacheStats is a snapshot of the compile cache's activity: hits,
// misses, evictions, resident entries, and the uncompressed bytes whose
// re-encoding the hits avoided.
type CacheStats = cache.Stats

// CacheStats reports compile-cache activity. It returns the zero Stats
// when the cache is disabled (the default — see WithCache).
func (s *Service) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.Stats()
}

// Compile compresses the machine's full calibrated pulse library into
// an image, fanning pulses out across the configured number of
// goroutines. The result is deterministic: entries appear in library
// order regardless of parallelism. The image is also installed as the
// service's active playback image.
func (s *Service) Compile(ctx context.Context, m *qctrl.Machine) (*Image, error) {
	return s.CompilePulses(ctx, m.Name, m.Library())
}

// CompilePulses compresses an explicit pulse list under the given
// library name.
func (s *Service) CompilePulses(ctx context.Context, name string, pulses []*qctrl.Pulse) (*Image, error) {
	start := time.Now()
	img, hits, err := s.compile(ctx, name, pulses)
	s.observe(CompileEvent{
		Library:   name,
		Pulses:    len(pulses),
		Encodes:   len(pulses) - hits,
		CacheHits: hits,
		Duration:  time.Since(start),
		Err:       err,
	})
	if err != nil {
		return nil, err
	}
	s.Use(img)
	return img, nil
}

// CompileTo compiles the machine's library and streams the serialized
// image to w, returning the number of bytes written.
func (s *Service) CompileTo(ctx context.Context, m *qctrl.Machine, w io.Writer) (int64, error) {
	img, err := s.Compile(ctx, m)
	if err != nil {
		return 0, err
	}
	return img.WriteTo(w)
}

// OpenImage deserializes an image from r and installs it as the
// service's active playback image.
func (s *Service) OpenImage(r io.Reader) (*Image, error) {
	img, err := core.ReadImage(r)
	if err != nil {
		return nil, err
	}
	s.Use(img)
	return img, nil
}

// Use installs img as the active playback image.
func (s *Service) Use(img *Image) {
	s.mu.Lock()
	s.img = img
	s.mu.Unlock()
}

// Image returns the active playback image, or nil if none is loaded.
func (s *Service) Image() *Image {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.img
}

// Play streams one entry of the active image through the hardware
// decompression pipeline model, returning the reconstructed waveform
// and the engine activity statistics.
func (s *Service) Play(ctx context.Context, key string) (*waveform.Fixed, qctrl.EngineStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, qctrl.EngineStats{}, err
	}
	img := s.Image()
	if img == nil {
		return nil, qctrl.EngineStats{}, fmt.Errorf("compaqt: no image loaded (Compile or OpenImage first)")
	}
	e, err := img.Lookup(key)
	if err != nil {
		return nil, qctrl.EngineStats{}, err
	}
	if img.WindowSize == 0 {
		return nil, qctrl.EngineStats{}, fmt.Errorf(
			"compaqt: image %q was not compiled with a windowed codec; playback requires intdct-w", img.Machine)
	}
	eng, err := s.engine(img.WindowSize)
	if err != nil {
		return nil, qctrl.EngineStats{}, err
	}
	return eng.Run(e.Compressed)
}

// engine returns the cached decompression engine for a window size,
// building it on first use. Engines are immutable and shared across
// goroutines.
func (s *Service) engine(ws int) (*qctrl.Engine, error) {
	s.mu.RLock()
	eng := s.engines[ws]
	s.mu.RUnlock()
	if eng != nil {
		return eng, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if eng = s.engines[ws]; eng != nil {
		return eng, nil
	}
	eng, err := qctrl.NewEngine(ws)
	if err != nil {
		return nil, err
	}
	s.engines[ws] = eng
	return eng, nil
}

// compile runs the per-pulse fan-out over the worker pool: entries are
// written by index, so the output order is the library order at any
// parallelism. The second result counts cache-served pulses.
func (s *Service) compile(ctx context.Context, name string, pulses []*qctrl.Pulse) (*Image, int, error) {
	img := &Image{Machine: name}
	if len(pulses) == 0 {
		return img, 0, nil
	}
	// Single-pulse fast path (the serving layer's steady state): no
	// closure, no shared counter, no pool round trip.
	if len(pulses) == 1 {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		e, hit, err := s.compileOne(pulses[0])
		if err != nil {
			return nil, 0, err
		}
		hits := 0
		if hit {
			hits = 1
		}
		return s.finish(img, []Entry{e}), hits, nil
	}
	var hits atomic.Int64
	entries := make([]Entry, len(pulses))
	err := s.runPool(ctx, len(pulses), func(i int) error {
		e, hit, err := s.compileOne(pulses[i])
		if err != nil {
			return err
		}
		if hit {
			hits.Add(1)
		}
		entries[i] = e
		return nil
	})
	if err != nil {
		return nil, int(hits.Load()), err
	}
	return s.finish(img, entries), int(hits.Load()), nil
}

// CompileBatch compresses an explicit pulse list like CompilePulses,
// but deduplicates identical pulse content before any encoder runs:
// every distinct waveform (quantized samples + codec identity/params +
// fidelity target) is compressed exactly once — served from the compile
// cache when one is enabled — and all duplicates reuse that result.
// The returned image's entries align one-to-one with pulses, in input
// order, and each is byte-identical to what a per-pulse Compile would
// have produced. Unique work is fanned out across the configured worker
// pool; the image is installed as the active playback image.
func (s *Service) CompileBatch(ctx context.Context, name string, pulses []*qctrl.Pulse) (*Image, error) {
	start := time.Now()
	img, encodes, hits, err := s.compileBatch(ctx, name, pulses)
	s.observe(CompileEvent{
		Library:   name,
		Pulses:    len(pulses),
		Encodes:   encodes,
		CacheHits: hits,
		Batch:     true,
		Duration:  time.Since(start),
		Err:       err,
	})
	return img, err
}

// compileBatch is CompileBatch's worker; it additionally reports the
// encoder invocations run and the unique digests the cache resolved.
func (s *Service) compileBatch(ctx context.Context, name string, pulses []*qctrl.Pulse) (*Image, int, int, error) {
	img := &Image{Machine: name}
	if len(pulses) == 0 {
		s.Use(img)
		return img, 0, 0, nil
	}

	// Quantize and digest every input in parallel. The digest is the
	// dedup key whether or not the cross-call cache is enabled.
	// Pointer-identical pulses (callers often build batches by
	// replicating a library slice) share one quantize+digest.
	fixed := make([]*waveform.Fixed, len(pulses))
	keys := make([]cache.Key, len(pulses))
	owner := make([]int, len(pulses))
	seen := make(map[*qctrl.Pulse]int, len(pulses))
	uniq := make([]int, 0, len(pulses))
	for i, p := range pulses {
		if j, ok := seen[p]; ok {
			owner[i] = j
			continue
		}
		seen[p] = i
		owner[i] = i
		uniq = append(uniq, i)
	}
	err := s.runPool(ctx, len(uniq), func(j int) error {
		i := uniq[j]
		fixed[i] = pulses[i].Waveform.Quantize()
		keys[i] = cache.DigestWaveform(s.fingerprint, s.cfg.targetMSE, fixed[i])
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	for i, j := range owner {
		if j != i {
			fixed[i], keys[i] = fixed[j], keys[j]
		}
	}

	// Unique digests in first-seen order; rep maps each digest to the
	// index of its first occurrence (the representative that is encoded).
	rep := make(map[cache.Key]int, len(pulses))
	order := make([]cache.Key, 0, len(pulses))
	for i, k := range keys {
		if _, ok := rep[k]; !ok {
			rep[k] = i
			order = append(order, k)
		}
	}

	// Resolve unique digests: cache hits first (one lookup per digest,
	// not per duplicate), then fan the remaining encodes out.
	encoded := make(map[cache.Key]*codec.Compressed, len(order))
	work := order
	if s.cache != nil {
		work = work[:0:0]
		for _, k := range order {
			if v, ok := s.cache.Get(k); ok {
				encoded[k] = v.(*codec.Compressed)
			} else {
				work = append(work, k)
			}
		}
	}
	hits := len(order) - len(work)
	results := make([]*codec.Compressed, len(work))
	err = s.runPool(ctx, len(work), func(j int) error {
		i := rep[work[j]]
		cc, err := s.encode(fixed[i])
		if err != nil {
			return fmt.Errorf("compaqt: compiling %s: %w", pulses[i].Key(), err)
		}
		results[j] = cc
		return nil
	})
	if err != nil {
		return nil, 0, hits, err
	}
	for j, k := range work {
		encoded[k] = results[j]
		if s.cache != nil {
			s.cache.Add(k, results[j], int64(4*fixed[rep[k]].Samples()))
		}
	}

	// Reassemble per-input entries in input order, restoring each
	// pulse's own name on shared encodings.
	entries := make([]Entry, len(pulses))
	for i, p := range pulses {
		entries[i] = Entry{
			Key:        p.Key(),
			Gate:       p.Gate,
			Qubit:      p.Qubit,
			Target:     p.Target,
			Compressed: withName(encoded[keys[i]], fixed[i].Name),
		}
	}
	s.finish(img, entries)
	s.Use(img)
	return img, len(work), hits, nil
}

// poolJob is one index of one runPool call, as carried to a persistent
// worker.
type poolJob struct {
	i   int
	run *poolRun
}

// poolRun is the shared state of one runPool invocation: many jobs,
// one context, one first-error slot.
type poolRun struct {
	ctx    context.Context
	cancel context.CancelFunc
	fn     func(i int) error

	wg      sync.WaitGroup
	errOnce sync.Once
	err     error
}

// do executes one index, recording the first error and canceling the
// run's remaining jobs. Jobs of a canceled run drain without invoking
// fn, so a failed or abandoned compile releases its workers quickly.
func (r *poolRun) do(i int) {
	defer r.wg.Done()
	if r.ctx.Err() != nil {
		return
	}
	if err := r.fn(i); err != nil {
		r.errOnce.Do(func() {
			r.err = err
			r.cancel()
		})
	}
}

// pool returns the Service's persistent worker pool, starting it on
// first use. The workers live for the Service's lifetime: compile
// calls stop paying goroutine spawn/teardown per request, and — more
// importantly for steady-state allocation behavior — each worker's
// sync.Pool-backed kernel scratch (internal/compress, internal/dct)
// stays cached per P across requests instead of being re-warmed by
// fresh goroutines. A runtime cleanup closes the feed when the Service
// becomes unreachable, so abandoned services do not leak workers.
func (s *Service) pool() chan<- poolJob {
	s.poolOnce.Do(func() {
		jobs := make(chan poolJob, s.cfg.parallelism)
		for w := 0; w < s.cfg.parallelism; w++ {
			go func() {
				for job := range jobs {
					job.run.do(job.i)
				}
			}()
		}
		s.jobs = jobs
		// The cleanup must capture only the channel — referencing s
		// would keep the Service reachable forever.
		runtime.AddCleanup(s, func(ch chan poolJob) { close(ch) }, jobs)
	})
	return s.jobs
}

// runPool runs fn(0..n-1) across the configured parallelism: the
// persistent per-Service worker pool pulls indices from the shared job
// feed, so callers writing results by index get deterministic output
// at any width. The first error cancels the remaining work. Concurrent
// runPool calls share the same workers; jobs interleave, each run
// completes independently.
func (s *Service) runPool(ctx context.Context, n int, fn func(i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if s.cfg.parallelism <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	run := &poolRun{ctx: ctx, cancel: cancel, fn: fn}
	run.wg.Add(n)
	jobs := s.pool()
	submitted := n
	for i := 0; i < n; i++ {
		select {
		case jobs <- poolJob{i: i, run: run}:
		case <-ctx.Done():
			submitted = i
		}
		if submitted != n {
			break
		}
	}
	// Un-count the jobs a cancellation kept from being submitted, then
	// wait for the in-flight remainder to drain.
	run.wg.Add(submitted - n)
	run.wg.Wait()
	if run.err != nil {
		return run.err
	}
	return ctx.Err()
}

// finish attaches the entries and stamps the image's window size from
// the compressed streams themselves: windowed variants record their
// window, non-windowed ones (delta, dict, dct-n) leave it 0, which
// marks the image as not playable through the hardware engine.
func (s *Service) finish(img *Image, entries []Entry) *Image {
	img.Entries = entries
	if len(entries) > 0 {
		img.WindowSize = entries[0].Compressed.WindowSize
	}
	return img
}

// fixedPool recycles quantization buffers on the cache-hit path: a
// served hit never hands the quantized waveform to a codec, so the
// buffers can be reused as soon as the digest lookup resolves. Misses
// leave their Fixed to the garbage collector — a registered codec may
// in principle retain what Encode receives.
var fixedPool = sync.Pool{New: func() any { return new(waveform.Fixed) }}

// compileOne compresses a single pulse through the configured codec
// (by way of the compile cache, when enabled). The second result
// reports whether the cache served the encoding.
func (s *Service) compileOne(p *qctrl.Pulse) (Entry, bool, error) {
	f := fixedPool.Get().(*waveform.Fixed)
	p.Waveform.QuantizeInto(f)
	cc, hit, err := s.encodeCached(f)
	if hit {
		fixedPool.Put(f)
	}
	if err != nil {
		return Entry{}, false, fmt.Errorf("compaqt: compiling %s: %w", p.Key(), err)
	}
	return Entry{Key: p.Key(), Gate: p.Gate, Qubit: p.Qubit, Target: p.Target, Compressed: cc}, hit, nil
}

// encodeCached encodes f, consulting the content-addressed cache when
// one is enabled. A hit returns the cached encoding under f's own name;
// a miss encodes and populates the cache, charging the entry with the
// uncompressed byte footprint it will save on future hits.
func (s *Service) encodeCached(f *waveform.Fixed) (*codec.Compressed, bool, error) {
	if s.cache == nil {
		cc, err := s.encode(f)
		return cc, false, err
	}
	k := cache.DigestWaveform(s.fingerprint, s.cfg.targetMSE, f)
	if v, ok := s.cache.Get(k); ok {
		return withName(v.(*codec.Compressed), f.Name), true, nil
	}
	cc, err := s.encode(f)
	if err != nil {
		return nil, false, err
	}
	s.cache.Add(k, cc, int64(4*f.Samples()))
	return cc, false, nil
}

// encode runs the configured codec, applying fidelity-aware tuning
// (Algorithm 1) when a target is set.
func (s *Service) encode(f *waveform.Fixed) (*codec.Compressed, error) {
	if s.cfg.targetMSE > 0 {
		fe := s.cdc.(codec.FidelityEncoder) // checked in New
		cc, _, err := fe.EncodeWithTarget(f, s.cfg.targetMSE)
		return cc, err
	}
	return s.cdc.Encode(f)
}

// withName returns cc carrying the given pulse name, so a cache or
// dedup hit is byte-identical to a fresh compile of the same content
// under a different name. The compressed payload is shared, never
// copied — Compressed values are immutable after compile.
func withName(cc *codec.Compressed, name string) *codec.Compressed {
	if cc.Name == name {
		return cc
	}
	clone := *cc
	clone.Name = name
	return &clone
}
