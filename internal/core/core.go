// Package core is COMPAQT's public facade: the compile-time compiler
// that turns a machine's calibrated pulse library into a compressed
// waveform-memory image (Fig. 6's "Compiler Backend"), the serialized
// image format that would be loaded onto the controller after each
// calibration cycle, and the playback pipeline that pairs the image
// with the hardware decompression engine.
package core

import (
	"fmt"
	"io"

	"compaqt/internal/compress"
	"compaqt/internal/device"
	"compaqt/internal/engine"
	"compaqt/internal/rle"
	"compaqt/internal/wave"
)

// Compiler compresses pulse libraries with fixed options.
type Compiler struct {
	// WindowSize is the int-DCT-W window (8 or 16 recommended).
	WindowSize int
	// TargetMSE, when nonzero, enables fidelity-aware thresholding
	// (Algorithm 1) with this per-pulse MSE target; otherwise the
	// default threshold applies.
	TargetMSE float64
	// Adaptive enables the flat-top repeat path (ASIC design point).
	Adaptive bool
}

// Entry is one compressed pulse in the image.
type Entry struct {
	Key        string
	Gate       string
	Qubit      int
	Target     int
	Compressed *compress.Compressed
}

// Image is a compiled waveform-memory image.
type Image struct {
	Machine    string
	WindowSize int
	Entries    []Entry
}

// Compile compresses the machine's full library.
func (c *Compiler) Compile(m *device.Machine) (*Image, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	img := &Image{Machine: m.Name, WindowSize: c.WindowSize}
	for _, p := range m.Library() {
		e, err := c.compileOne(p)
		if err != nil {
			return nil, err
		}
		img.Entries = append(img.Entries, e)
	}
	return img, nil
}

// CompilePulses compresses an explicit pulse list.
func (c *Compiler) CompilePulses(name string, pulses []*device.Pulse) (*Image, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	img := &Image{Machine: name, WindowSize: c.WindowSize}
	for _, p := range pulses {
		e, err := c.compileOne(p)
		if err != nil {
			return nil, err
		}
		img.Entries = append(img.Entries, e)
	}
	return img, nil
}

func (c *Compiler) validate() error {
	switch c.WindowSize {
	case 4, 8, 16, 32:
		return nil
	}
	return fmt.Errorf("core: invalid window size %d", c.WindowSize)
}

func (c *Compiler) compileOne(p *device.Pulse) (Entry, error) {
	opts := compress.Options{
		Variant:    compress.IntDCTW,
		WindowSize: c.WindowSize,
		Adaptive:   c.Adaptive,
	}
	f := p.Waveform.Quantize()
	var cc *compress.Compressed
	var err error
	if c.TargetMSE > 0 {
		var res *compress.Result
		res, err = compress.FidelityAware(f, opts, c.TargetMSE)
		if err == nil {
			cc = res.Compressed
		}
	} else {
		cc, err = compress.Compress(f, opts)
	}
	if err != nil {
		return Entry{}, fmt.Errorf("core: compiling %s: %w", p.Key(), err)
	}
	return Entry{Key: p.Key(), Gate: p.Gate, Qubit: p.Qubit, Target: p.Target, Compressed: cc}, nil
}

// Lookup finds an entry by key.
func (img *Image) Lookup(key string) (*Entry, error) {
	for i := range img.Entries {
		if img.Entries[i].Key == key {
			return &img.Entries[i], nil
		}
	}
	return nil, fmt.Errorf("core: image has no entry %q", key)
}

// Stats aggregates the image's compression statistics.
type Stats struct {
	Entries       int
	OriginalWords int
	PackedWords   int
	UniformWords  int
	PackedRatio   float64
	UniformRatio  float64
	WorstWindow   int
	RepeatSamples int
}

// Stats computes the image summary.
func (img *Image) Stats() Stats {
	var s Stats
	for i := range img.Entries {
		c := img.Entries[i].Compressed
		s.Entries++
		s.OriginalWords += c.OriginalWords()
		s.PackedWords += c.Words(compress.LayoutPacked)
		s.UniformWords += c.Words(compress.LayoutUniform)
		if w := c.MaxWindowWords(); w > s.WorstWindow {
			s.WorstWindow = w
		}
		s.RepeatSamples += c.I.RepeatSamples + c.Q.RepeatSamples
	}
	if s.PackedWords > 0 {
		s.PackedRatio = float64(s.OriginalWords) / float64(s.PackedWords)
	}
	if s.UniformWords > 0 {
		s.UniformRatio = float64(s.OriginalWords) / float64(s.UniformWords)
	}
	return s
}

// Pipeline pairs an image with a decompression engine for playback.
type Pipeline struct {
	Image  *Image
	Engine *engine.Engine
}

// NewPipeline builds a playback pipeline for the image.
func NewPipeline(img *Image) (*Pipeline, error) {
	e, err := engine.New(img.WindowSize)
	if err != nil {
		return nil, err
	}
	return &Pipeline{Image: img, Engine: e}, nil
}

// Play decompresses one entry through the hardware engine, returning
// the reconstructed waveform and the activity statistics.
func (p *Pipeline) Play(key string) (*wave.Fixed, engine.Stats, error) {
	e, err := p.Image.Lookup(key)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	return p.Engine.Run(e.Compressed)
}

// Serialization. Format (little endian):
//
//	magic "CPQT", version u16, window u16
//	machine string, entry count u32
//	per entry: key, gate strings; qubit, target i32;
//	           sample rate f64, samples u32;
//	           per channel (I, Q): word count u32, words u32 each
//
// Streams store the 17-bit words in 32-bit slots; a production FPGA
// loader would repack them into 18-bit BRAM words.

const (
	magic   = "CPQT"
	version = 1

	// maxImageEntries, maxImageSamples and maxStreamWords bound what
	// ValidateImageBytes accepts from untrusted bytes. Real libraries
	// are a few hundred entries of at most tens of thousands of
	// samples; the caps leave orders of magnitude of headroom.
	maxImageEntries = 1 << 20
	maxImageSamples = 1 << 22
	maxStreamWords  = 1 << 24
)

// ReadImage deserializes an image written by WriteTo. It reads r to the
// end and decodes what it read with DecodeImageBytes, so memory grows
// with the bytes that arrive, never with a length a header declares.
// Bytes after the image are read and ignored.
func ReadImage(r io.Reader) (*Image, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeImageBytes(b)
}

// declaredChunk bounds the memory ReadDeclared commits before bytes
// arrive. A body declared larger is read into a buffer that doubles
// toward the declared length as it fills, so a declaration alone cannot
// make the reader allocate; the largest catalog library at window 16
// (~130 KB) still reads into one exact-size buffer.
const declaredChunk = 256 << 10

// ReadDeclared reads a body of declared length n (an HTTP
// Content-Length, say) into a buffer of exactly n bytes, allocated as
// the bytes arrive. Its errors are io.ReadFull's: io.EOF when nothing
// arrived, io.ErrUnexpectedEOF when the body ended early.
func ReadDeclared(r io.Reader, n int64) ([]byte, error) {
	buf := make([]byte, 0, min(n, declaredChunk))
	for {
		got, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+got]
		if err == io.EOF && len(buf) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if int64(len(buf)) == n {
			return buf, nil
		}
		grown := make([]byte, len(buf), min(n, 2*int64(cap(buf))))
		copy(grown, buf)
		buf = grown
	}
}

// rebuildChannelMeta reconstructs the per-window word counts and repeat
// statistics from a deserialized stream (they are derivable, so the
// format does not store them).
func rebuildChannelMeta(ch *compress.Channel, ws int) {
	ch.WindowWords = nil
	ch.RepeatWords = 0
	ch.RepeatSamples = 0
	var y [32]int32
	i := 0
	for i < len(ch.Stream) {
		if k, run := rle.Decode(ch.Stream[i]); k == rle.KindRepeat {
			ch.RepeatWords++
			ch.RepeatSamples += run
			i++
			continue
		}
		// A malformed window still has a length (see rle.ReadWindow);
		// Decompress and the engine report its error.
		used, _ := rle.ReadWindow(y[:ws], ch.Stream[i:])
		ch.WindowWords = append(ch.WindowWords, used)
		i += used
	}
}
