package main

import (
	"context"
	"fmt"

	"compaqt"
	"compaqt/client"
	"compaqt/qctrl"
	"compaqt/waveform"
)

// mseBudget is the int-DCT-W round-trip MSE budget of the codec suite
// (unit-amplitude terms); every entry the benchmark sees must meet it.
const mseBudget = 5e-5

// splitmix64 finalizer: the benchmark's only source of randomness, so
// a seed fixes every input.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix hashes a tuple of values into one well-spread word.
func mix(vals ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, v := range vals {
		h = splitmix(h ^ v)
	}
	return h
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// perm returns a seeded permutation of [0, n).
func perm(n int, h uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(h, uint64(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// library is one catalog machine's calibrated pulse library.
type library struct {
	machine string
	pulses  []*qctrl.Pulse
	keys    []string
	// words is the library's uncompressed size in 16-bit words.
	words int
}

func loadLibrary(name string) (*library, error) {
	m, err := qctrl.ByName(name)
	if err != nil {
		return nil, err
	}
	lib := &library{machine: m.Name, pulses: m.Library()}
	for _, p := range lib.pulses {
		lib.keys = append(lib.keys, p.Key())
		lib.words += 2 * len(p.Waveform.I)
	}
	return lib, nil
}

// recalMix holds the machine of each device pair in recal's fleet, and
// the machine pattern of every block of image-get's images: a quarter
// 5-qubit machines, half Guadalupes and a quarter Torontos. Percentiles
// then fall well inside a size class, not near the edge between two:
// p50 in the middle of the Guadalupes, p90 among the Torontos. With two
// Guadalupes in five, p50 sat near the Guadalupes' fast edge and moved
// twice as much from run to run as throughput did.
var recalMix = [...]string{
	"ibmq_bogota", "ibmq_lima",
	"ibmq_guadalupe", "ibmq_guadalupe", "ibmq_guadalupe", "ibmq_guadalupe",
	"ibmq_toronto", "ibmq_toronto",
}

// libraries loads the machines of recalMix, keyed by name.
func libraries() (map[string]*library, error) {
	libs := map[string]*library{}
	for _, name := range recalMix {
		if libs[name] != nil {
			continue
		}
		lib, err := loadLibrary(name)
		if err != nil {
			return nil, err
		}
		libs[name] = lib
	}
	return libs, nil
}

// mixMachine picks the machine of item i: each block of len(recalMix)
// items is a seeded permutation of recalMix, so every block holds the
// same mix.
func mixMachine(h uint64, i int64) string {
	n := int64(len(recalMix))
	return recalMix[perm(int(n), mix(h, uint64(i/n)))[i%n]]
}

// driftInto writes lib after a seeded calibration drift into specs,
// reusing their sample buffers. Every calibrated amplitude (XAmp,
// SXAmp, CRAmp, MeasAmp) moves by up to ±2%; each library waveform is
// linear in its amplitude, so the drifted waveform is the calibrated
// one scaled by the drift. The result differs from the calibration in
// almost every quantized sample, so every pulse is new to the cache.
func (lib *library) driftInto(specs []client.PulseSpec, h uint64) []client.PulseSpec {
	specs = specs[:0]
	for i, p := range lib.pulses {
		f := 1 + 0.02*(2*unit(mix(h, uint64(i)))-1)
		var s client.PulseSpec
		if len(specs) < cap(specs) {
			s = specs[:len(specs)+1][len(specs)]
		}
		base := client.FromPulse(p)
		s.Gate, s.Qubit, s.Target, s.SampleRate = base.Gate, base.Qubit, base.Target, base.SampleRate
		s.I = scaleInto(s.I, base.I, f)
		s.Q = scaleInto(s.Q, base.Q, f)
		specs = append(specs, s)
	}
	return specs
}

func scaleInto(dst, src []float64, f float64) []float64 {
	dst = dst[:0]
	for _, v := range src {
		dst = append(dst, v*f)
	}
	return dst
}

// pulsesOf converts wire specs back to in-process pulses (sharing the
// sample slices).
func pulsesOf(specs []client.PulseSpec) ([]*qctrl.Pulse, error) {
	out := make([]*qctrl.Pulse, len(specs))
	for i, s := range specs {
		p, err := s.Pulse()
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// reference is the in-process ground truth of one request: the image a
// default compaqt.Service compiles from the same pulses, its wire
// bytes, and its summary as the server reports it.
type reference struct {
	img   *compaqt.Image
	wire  []byte
	stats client.ImageStats
}

// compileReference compiles pulses in process under name.
func compileReference(svc *compaqt.Service, name string, pulses []*qctrl.Pulse) (*reference, error) {
	img, err := svc.CompileBatch(context.Background(), name, pulses)
	if err != nil {
		return nil, err
	}
	wire, err := img.AppendTo(nil)
	if err != nil {
		return nil, err
	}
	st := img.Stats()
	return &reference{img: img, wire: wire, stats: client.ImageStats{
		Entries: st.Entries, OriginalWords: st.OriginalWords, PackedWords: st.PackedWords,
		UniformWords: st.UniformWords, PackedRatio: st.PackedRatio, UniformRatio: st.UniformRatio,
		WorstWindow: st.WorstWindow, RepeatSamples: st.RepeatSamples,
	}}, nil
}

// exactMetrics are the paper's figures of merit over a fixed image
// set: R = Σ original words ÷ Σ packed words, and the largest
// round-trip MSE of any entry against its quantized source.
type exactMetrics struct {
	original, packed int
	worstMSE         float64
	// overBudget counts entries whose MSE exceeds mseBudget.
	overBudget int
}

func (e *exactMetrics) ratio() float64 { return float64(e.original) / float64(e.packed) }

// addImage folds img in; sources are the pulses its entries were
// compiled from, entry by entry.
func (e *exactMetrics) addImage(img *compaqt.Image, sources []*qctrl.Pulse) error {
	if len(sources) != len(img.Entries) {
		return fmt.Errorf("image %s: %d entries for %d sources", img.Machine, len(img.Entries), len(sources))
	}
	st := img.Stats()
	e.original += st.OriginalWords
	e.packed += st.PackedWords
	for i := range img.Entries {
		mse, err := entryMSE(&img.Entries[i], sources[i])
		if err != nil {
			return err
		}
		e.addMSE(mse)
	}
	return nil
}

func (e *exactMetrics) addMSE(mse float64) {
	e.worstMSE = max(e.worstMSE, mse)
	if mse > mseBudget {
		e.overBudget++
	}
}

// entryMSE decodes one entry and compares it with its quantized source.
func entryMSE(e *compaqt.Entry, src *qctrl.Pulse) (float64, error) {
	got, err := e.Compressed.Decompress()
	if err != nil {
		return 0, fmt.Errorf("entry %s: %w", e.Key, err)
	}
	want := src.Waveform.Quantize()
	if len(got.I) != len(want.I) {
		return 0, fmt.Errorf("entry %s: %d samples decoded, %d compiled", e.Key, len(got.I), len(want.I))
	}
	return waveform.MSEFixed(want, got), nil
}
