// Package engine models COMPAQT's hardware decompression pipeline
// (Section V-A/B, Fig. 10): RLE decoder -> IDCT -> DAC buffer, with the
// adaptive IDCT-bypass path of Section V-D (Fig. 13b).
//
// The engine is functionally bit-exact: the inverse transform is
// evaluated through the canonical-signed-digit shift-add networks of
// internal/csd — the multiplierless datapath of the int-DCT-W design —
// and tests assert equality with the software reference
// (compress.Decompress / dct.IntInverse).
//
// It is also a cycle/access model: running a compressed channel counts
// fabric cycles, memory word fetches, IDCT invocations and bypassed
// samples, which feed the bandwidth (Table V), power (Figs. 18-19) and
// scalability (Fig. 17) analyses.
package engine

import (
	"fmt"

	"compaqt/internal/compress"
	"compaqt/internal/csd"
	"compaqt/internal/dct"
	"compaqt/internal/rle"
	"compaqt/internal/wave"
)

// Stats aggregates the hardware activity of a decompression run.
type Stats struct {
	// Cycles is the number of fabric cycles consumed (one window or
	// one repeat-codeword drain per cycle once the pipeline is full).
	Cycles int64
	// MemWords is the number of compressed words fetched from the
	// waveform memory.
	MemWords int64
	// IDCTOps is the number of inverse-transform invocations.
	IDCTOps int64
	// BypassSamples counts samples produced by the repeat (flat-top)
	// path with the IDCT engine idle.
	BypassSamples int64
	// SamplesOut is the number of samples delivered to the DAC buffer.
	SamplesOut int64
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.Cycles += s2.Cycles
	s.MemWords += s2.MemWords
	s.IDCTOps += s2.IDCTOps
	s.BypassSamples += s2.BypassSamples
	s.SamplesOut += s2.SamplesOut
}

// Engine is one decompression pipeline instance for a fixed window
// size, holding the per-row shift-add plans of the inverse transform.
// Engines are immutable after New and safe for concurrent use.
type Engine struct {
	WS int
	// forms[k*WS+n] is the CSD shift-add plan of matrix entry [k][n] —
	// the same decompositions csd.Network models for the hardware
	// resource estimates — precomputed so the per-coefficient
	// evaluation never re-dispatches through a coefficient lookup.
	forms []csd.Form
}

// New builds an engine for the given window size (4, 8, 16 or 32).
func New(ws int) (*Engine, error) {
	if !dct.ValidWindow(ws) {
		return nil, fmt.Errorf("engine: unsupported window size %d", ws)
	}
	flat := dct.MatrixFlat(ws)
	forms := make([]csd.Form, len(flat))
	for i, c := range flat {
		forms[i] = csd.Decompose(c)
	}
	return &Engine{WS: ws, forms: forms}, nil
}

// IDCT evaluates the integer inverse transform through the shift-add
// network. Bit-exact with dct.IntInverse. Use IDCTInto to reuse an
// output buffer.
func (e *Engine) IDCT(y []int32) []int16 {
	x := make([]int16, e.WS)
	e.IDCTInto(x, y)
	return x
}

// IDCTInto evaluates the integer inverse transform into dst (len WS)
// through the precomputed per-row shift-add plans. It performs no
// allocations and is bit-exact with dct.IntInverse: every constant
// product is evaluated by the CSD digit network, and the int64
// accumulation is exact, so summing row-major (skipping whole rows of
// zeroed coefficients, as the hardware gates its adder columns off)
// reproduces the reference bit-for-bit.
func (e *Engine) IDCTInto(dst []int16, y []int32) {
	ws := e.WS
	if len(y) != ws || len(dst) != ws {
		panic(fmt.Sprintf("engine: IDCTInto window %d, got src %d dst %d", ws, len(y), len(dst)))
	}
	const rnd = int64(1) << (dct.InverseShift - 1)
	var accBuf [32]int64
	acc := accBuf[:ws]
	for k := 0; k < ws; k++ {
		if y[k] == 0 {
			continue // zeroed inputs gate their adder columns off
		}
		c := int64(y[k])
		row := e.forms[k*ws : (k+1)*ws]
		for n := 0; n < ws; n++ {
			acc[n] += row[n].Apply(c)
		}
	}
	for n := 0; n < ws; n++ {
		a := acc[n]
		var v int64
		if a >= 0 {
			v = (a + rnd) >> dct.InverseShift
		} else {
			v = -((-a + rnd) >> dct.InverseShift)
		}
		dst[n] = clamp16(v)
	}
}

// RunChannel streams one compressed channel through the pipeline,
// producing n output samples and the activity statistics. The fetch
// stage reads the packed stream; under the FPGA uniform layout the
// fetch of a w-word window is a single parallel row access of the
// banked memory (1 cycle), modeled here as w word reads in one cycle.
func (e *Engine) RunChannel(ch *compress.Channel, n int) ([]int16, Stats, error) {
	var st Stats
	ws := e.WS
	if n < 0 {
		return nil, st, fmt.Errorf("engine: negative sample count %d", n)
	}
	if n == 0 {
		if len(ch.Stream) != 0 {
			return nil, st, fmt.Errorf("engine: %d stream words but zero samples declared", len(ch.Stream))
		}
		return nil, st, nil
	}
	// Pre-size for n samples plus the hold-last padding of a final
	// partial window (trimmed before return), so a well-formed stream
	// never regrows the buffer.
	out := make([]int16, 0, n+ws-1)
	var last int16
	var yBuf [32]int32
	var sBuf [32]int16
	i := 0
	for i < len(ch.Stream) {
		if k, run := rle.Decode(ch.Stream[i]); k == rle.KindRepeat {
			// Adaptive path: one fetch, then the repeat register feeds
			// the DAC buffer directly, ws samples per cycle, with both
			// the memory and the IDCT idle (Fig. 13b).
			st.MemWords++
			st.Cycles += int64((run + ws - 1) / ws)
			// The compiler never emits a repeat past the waveform end, so
			// a run that would overshoot n is malformed input — reject it
			// before growing the output (untrusted streams could otherwise
			// expand a few words into gigabytes).
			if run > n-len(out) {
				return nil, st, fmt.Errorf("engine: repeat run of %d overruns the %d declared samples", run, n)
			}
			out = rle.AppendRun(out, last, run)
			st.BypassSamples += int64(run)
			i++
			continue
		}
		// Fetch one window's words, expanding the RLE zero tail into the
		// IDCT buffer as they arrive.
		y := yBuf[:ws]
		used, err := rle.ReadWindow(y, ch.Stream[i:])
		if err != nil {
			return nil, st, fmt.Errorf("engine: window at word %d: %w", i, err)
		}
		i += used
		st.MemWords += int64(used)
		st.Cycles++ // pipelined: one window per fabric cycle

		// IDCT stage (constant one-cycle latency, Section V-B).
		samples := sBuf[:ws]
		e.IDCTInto(samples, y)
		st.IDCTOps++
		out = append(out, samples...)
		if len(out) > n {
			out = out[:n] // trim hold-last padding of the final window
		}
		last = out[len(out)-1]
	}
	st.SamplesOut = int64(len(out))
	if len(out) != n {
		return nil, st, fmt.Errorf("engine: produced %d samples, want %d", len(out), n)
	}
	return out, st, nil
}

// Run decompresses a full waveform (both channels) and returns the
// reconstructed fixed-point waveform plus combined statistics.
func (e *Engine) Run(c *compress.Compressed) (*wave.Fixed, Stats, error) {
	if c.Variant != compress.IntDCTW {
		return nil, Stats{}, fmt.Errorf("engine: hardware pipeline only implements int-DCT-W, got %v", c.Variant)
	}
	if c.WindowSize != e.WS {
		return nil, Stats{}, fmt.Errorf("engine: window size mismatch: engine %d, waveform %d", e.WS, c.WindowSize)
	}
	if c.Overlapped {
		return nil, Stats{}, fmt.Errorf("engine: overlapped-window streams are a software-evaluated extension (Section VII-B); the pipeline model implements the paper's non-overlapping layout")
	}
	var st Stats
	out := &wave.Fixed{Name: c.Name, SampleRate: c.SampleRate}
	var err error
	var s Stats
	out.I, s, err = e.RunChannel(&c.I, c.Samples)
	if err != nil {
		return nil, st, err
	}
	st.Add(s)
	out.Q, s, err = e.RunChannel(&c.Q, c.Samples)
	if err != nil {
		return nil, st, err
	}
	st.Add(s)
	return out, st, nil
}

func clamp16(v int64) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32767 {
		return -32767
	}
	return int16(v)
}
