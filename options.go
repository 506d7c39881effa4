package compaqt

import (
	"fmt"
	"runtime"

	"compaqt/codec"
)

// config is the resolved service configuration. It is assembled by New
// from functional options and validated once; Service never mutates it.
type config struct {
	codecName string
	params    codec.Params
	// targetMSE, when nonzero, enables fidelity-aware per-pulse
	// threshold tuning (Algorithm 1) with this round-trip MSE budget.
	targetMSE float64
	// parallelism is the compile fan-out width; 1 means serial.
	parallelism int
	// cacheSize is the compile-cache capacity in entries; 0 disables
	// the cache (the default).
	cacheSize int
	// observer, when non-nil, receives one CompileEvent per compile
	// call (WithObserver).
	observer Observer
}

func defaultConfig() config {
	// params.Window stays 0 here: windowed codecs resolve it to 16 via
	// Params.WindowOrDefault, while non-windowed codecs reject only an
	// explicit WithWindow.
	return config{
		codecName:   "intdct-w",
		parallelism: runtime.NumCPU(),
	}
}

// Option configures a Service at construction time.
type Option func(*config) error

// WithCodec selects the compression backend by registry name (see
// codec.Names). The default is "intdct-w", the variant the COMPAQT
// hardware implements.
func WithCodec(name string) Option {
	return func(c *config) error {
		if _, err := codec.Get(name); err != nil {
			return err
		}
		c.codecName = name
		return nil
	}
}

// WithWindow sets the transform window size for windowed codecs
// (4, 8, 16 or 32; default 16).
func WithWindow(n int) Option {
	return func(c *config) error {
		switch n {
		case 4, 8, 16, 32:
			c.params.Window = n
			return nil
		}
		return fmt.Errorf("compaqt: invalid window size %d (want 4, 8, 16 or 32)", n)
	}
}

// WithThreshold fixes the relative coefficient threshold (fraction of
// full scale, in [0, 1)). Mutually exclusive with fidelity targeting.
func WithThreshold(t float64) Option {
	return func(c *config) error {
		if t < 0 || t >= 1 {
			return fmt.Errorf("compaqt: threshold %g outside [0, 1)", t)
		}
		c.params.Threshold = t
		return nil
	}
}

// WithFidelityTarget enables fidelity-aware compression (Algorithm 1):
// each pulse's threshold is tuned until its round-trip error keeps the
// reconstruction fidelity at or above f, expressed as 1 - MSE in
// unit-amplitude terms (e.g. 0.999 budgets an MSE of 1e-3; the paper
// operates in the 1-5e-6 .. 1-1e-7 band).
func WithFidelityTarget(f float64) Option {
	return func(c *config) error {
		if f <= 0 || f >= 1 {
			return fmt.Errorf("compaqt: fidelity target %g outside (0, 1)", f)
		}
		c.targetMSE = 1 - f
		return nil
	}
}

// WithMSETarget enables fidelity-aware compression with an explicit
// per-pulse round-trip MSE budget (e.g. 5e-6, the paper's Fig. 7c
// operating point).
func WithMSETarget(mse float64) Option {
	return func(c *config) error {
		if mse <= 0 {
			return fmt.Errorf("compaqt: MSE target %g must be positive", mse)
		}
		c.targetMSE = mse
		return nil
	}
}

// WithAdaptive toggles the flat-top repeat path (Section V-D, the ASIC
// design point).
func WithAdaptive(on bool) Option {
	return func(c *config) error {
		c.params.Adaptive = on
		return nil
	}
}

// WithLayout selects the memory-layout accounting (uniform banked
// FPGA rows vs packed ASIC streams) used for compression ratios.
func WithLayout(l codec.Layout) Option {
	return func(c *config) error {
		switch l {
		case codec.LayoutUniform, codec.LayoutPacked:
			c.params.Layout = l
			return nil
		}
		return fmt.Errorf("compaqt: unknown layout %d", int(l))
	}
}

// DefaultCacheSize is the compile-cache capacity (in cached waveform
// encodings) that WithCache(0) selects. At typical calibrated-pulse
// lengths it bounds the cache to a few MB of compressed streams.
const DefaultCacheSize = 4096

// WithCache enables the content-addressed compile cache with room for
// n compressed waveforms (n == 0 selects DefaultCacheSize). Pulses are
// digested over their quantized samples plus the codec's identity and
// parameters (and the fidelity target, when set), so repeated content
// across Compile and CompileBatch calls is encoded once and served
// from the cache thereafter — the paper's observation that calibrated
// waveforms recur across circuits and shots, turned into compile
// throughput. The cache is per-Service and safe for concurrent use;
// inspect it with Service.CacheStats. The default is no cache.
func WithCache(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("compaqt: cache size %d must not be negative", n)
		}
		if n == 0 {
			n = DefaultCacheSize
		}
		c.cacheSize = n
		return nil
	}
}

// WithParallelism sets the number of goroutines the compiler fans
// pulse compression out across. 1 compiles serially; the default is
// runtime.NumCPU(). The compiled image is identical at any width.
func WithParallelism(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("compaqt: parallelism %d must be at least 1", n)
		}
		c.parallelism = n
		return nil
	}
}
