package engine

import (
	"fmt"

	"compaqt/internal/compress"
	"compaqt/internal/membank"
	"compaqt/internal/rle"
)

// Banked playback: the uniform-width memory organization of Fig. 12.
// Each compressed window occupies one row across `width` BRAM banks;
// the decompression pipeline fetches a full row per fabric cycle and
// produces a window of samples. This functionally exercises the
// banking arithmetic that Table V's qubit counts rest on: width banks
// per channel sustain ws samples per cycle.

// padWord fills unused row slots. Each row's own words come first and
// the window reader stops at ws covered samples, so a well-formed row
// never reaches its padding. The pad is a repeat codeword, which no
// window may hold: a row whose own words fall short of ws samples is
// refused, as the streamed decoders refuse it, instead of being
// completed by its padding.
var padWord = rle.Repeat(1)

// BankedChannel is one channel stored uniformly in a banked array.
type BankedChannel struct {
	Array *membank.Array
	// Width is the uniform window width in words (= banks).
	Width int
	// Rows is the number of occupied rows (windows).
	Rows int
	// WS is the window size in samples.
	WS int
	// Samples is the original channel length.
	Samples int
}

// LoadChannel lays a compressed channel out uniformly across a fresh
// banked array. Adaptive (repeat) streams are not bankable this way —
// they belong to the sequential ASIC layout — so they are rejected.
func LoadChannel(ch *compress.Channel, ws, samples int) (*BankedChannel, error) {
	if ch.RepeatWords > 0 {
		return nil, fmt.Errorf("engine: adaptive streams use the sequential layout, not banking")
	}
	width := 0
	for _, w := range ch.WindowWords {
		if w > width {
			width = w
		}
	}
	if width == 0 {
		return nil, fmt.Errorf("engine: empty channel")
	}
	arr := membank.NewArray(width)
	// Walk the stream window by window, padding each to the row width.
	i := 0
	rows := 0
	for _, w := range ch.WindowWords {
		row := make([]uint32, width)
		for k := 0; k < w; k++ {
			row[k] = uint32(ch.Stream[i])
			i++
		}
		for k := w; k < width; k++ {
			row[k] = uint32(padWord)
		}
		arr.Store(row)
		rows++
	}
	if i != len(ch.Stream) {
		return nil, fmt.Errorf("engine: stream walk consumed %d of %d words", i, len(ch.Stream))
	}
	return &BankedChannel{Array: arr, Width: width, Rows: rows, WS: ws, Samples: samples}, nil
}

// Play streams the banked channel through the engine: one row fetch
// per window, RLE decode, IDCT. Bit-exact with the software reference.
func (e *Engine) Play(bc *BankedChannel) ([]int16, Stats, error) {
	if bc.WS != e.WS {
		return nil, Stats{}, fmt.Errorf("engine: window mismatch: engine %d, channel %d", e.WS, bc.WS)
	}
	var st Stats
	out := make([]int16, 0, bc.Samples)
	var yBuf [32]int32
	var sBuf [32]int16
	var wordBuf [32]rle.Word
	for row := 0; row < bc.Rows; row++ {
		words, err := bc.Array.ReadRow(row)
		if err != nil {
			return nil, st, err
		}
		st.Cycles++
		st.MemWords += int64(bc.Width) // the row fetch reads every bank

		// RLE decode until ws samples are covered; padding words beyond
		// that are fetched but ignored (the hardware wires them off).
		// Every word covers at least one sample, so a window fits in the
		// row's first ws words.
		win := wordBuf[:min(len(words), bc.WS)]
		for k := range win {
			win[k] = rle.Word(words[k])
		}
		y := yBuf[:bc.WS]
		if _, err := rle.ReadWindow(y, win); err != nil {
			return nil, st, fmt.Errorf("engine: banked row %d: %w", row, err)
		}
		samples := sBuf[:bc.WS]
		e.IDCTInto(samples, y)
		st.IDCTOps++
		out = append(out, samples...)
		if len(out) > bc.Samples {
			out = out[:bc.Samples]
		}
	}
	st.SamplesOut = int64(len(out))
	if len(out) != bc.Samples {
		return nil, st, fmt.Errorf("engine: banked playback produced %d samples, want %d", len(out), bc.Samples)
	}
	return out, st, nil
}
