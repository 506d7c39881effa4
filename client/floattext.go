package client

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// This file converts the request codec's float64s to and from decimal
// text, bit for bit and byte for byte as strconv does, without its
// general-purpose machinery. Parsing takes Clinger's exact path or the
// Eisel–Lemire algorithm (Lemire, "Number Parsing at a Gigabyte per
// Second", arXiv:2101.11408); formatting takes Schubfach (Giulietti,
// "The Schubfach way to render doubles", 2020). Both read one table of
// 128-bit powers of ten, and both hand the rare input they cannot
// decide exactly to strconv, which the tests keep as their oracle.
// Digits move eight at a time both ways, as in Lemire's paper: the
// decoder tests and folds eight digit bytes per 64-bit word
// (isEightDigits, parseEightDigits), and the encoder renders each
// eight digits of a mantissa into one word by multiply–shift
// (eightDigits) and stores it whole.

// pow10Min and pow10Max bound the exponents pow10Table covers.
const (
	pow10Min = -348
	pow10Max = 347
)

// pow10Table holds the top 128 bits of 10^q, rounded down, for q in
// [pow10Min, pow10Max], as {low, high} halves: strconv's table. Its
// binary exponents are implied. Built at init, it is 11 KB of static
// data.
var pow10Table [pow10Max - pow10Min + 1][2]uint64

func init() {
	var p, x big.Int
	ten := big.NewInt(10)
	var buf [16]byte
	set := func(q int) {
		x.FillBytes(buf[:])
		pow10Table[q-pow10Min] = [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
	}
	p.SetInt64(1)
	for m := 0; m <= -pow10Min; m++ {
		n := p.BitLen() // 10^m is in [2^(n-1), 2^n)
		if m <= pow10Max {
			if n > 128 {
				x.Rsh(&p, uint(n-128))
			} else {
				x.Lsh(&p, uint(128-n))
			}
			set(m)
		}
		if m > 0 {
			// 2^(127+n) / 10^m lies in (2^127, 2^128).
			x.Lsh(x.SetInt64(1), uint(127+n))
			x.Quo(&x, &p)
			set(-m)
		}
		p.Mul(&p, ten)
	}
}

// pow10Float holds the powers of ten a float64 represents exactly.
var pow10Float = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// decimal is a JSON number as the decoder's grammar walk reads it, in
// strconv's terms: ±man × 10^exp, where man holds the first 19
// significant digits (10^19 < 2^64) and trunc records that a nonzero
// digit past them was dropped. The exponent saturates where strconv's
// does, so a number decodes to strconv's value even where that
// saturation shows.
type decimal struct {
	man   uint64
	exp   int
	nd    int // significant digits in man
	neg   bool
	trunc bool
}

// float returns v's float64 value, or false where it cannot decide it
// exactly: past a dropped nonzero digit, at Eisel–Lemire's halfway
// ambiguity, and where the result would be subnormal or out of range.
func (v *decimal) float() (float64, bool) {
	if v.trunc {
		return 0, false
	}
	if v.man < 1<<53 && -22 <= v.exp && v.exp <= 22 {
		// Clinger's fast path: man and 10^|exp| are exact float64s, so
		// one correctly rounded operation gives the nearest float64.
		f := float64(v.man)
		if v.neg {
			f = -f
		}
		if v.exp < 0 {
			return f / pow10Float[-v.exp], true
		}
		return f * pow10Float[v.exp], true
	}
	return eiselLemire64(v.man, v.exp, v.neg)
}

// eiselLemire64 is strconv's, over pow10Table. It is ported from Go's
// src/strconv/eisel_lemire.go: Copyright 2020 The Go Authors. All
// rights reserved. Use of this source code is governed by a BSD-style
// license that can be found in the Go project's LICENSE file. The terse
// comments refer to sections of
// https://nigeltao.github.io/blog/2020/eisel-lemire.html.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < pow10Min || pow10Max < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow10Table[exp10-pow10Min][1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow10Table[exp10-pow10Min][0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// appendFloat writes f as encoding/json does: the shortest decimal that
// parses back to f (the closest such, ties to even), in 'f' form except
// below 1e-6 and from 1e21 up, where 'e' form has no leading zero in its
// exponent.
func appendFloat(b []byte, f float64) ([]byte, error) {
	fb := math.Float64bits(f)
	bq := int(fb>>52) & 0x7FF
	c := fb & (1<<52 - 1)
	switch {
	case bq == 0x7FF:
		return nil, fmt.Errorf("client: unsupported value %v: JSON has no NaN or infinity", f)
	case bq == 0 && c != 0:
		// Subnormals, never pulse samples, are strconv's: Schubfach as
		// published prints at least two digits there. Their exponents
		// have three digits, so 'e' form needs no patching.
		return strconv.AppendFloat(b, f, 'e', -1, 64), nil
	}
	if fb>>63 != 0 {
		b = append(b, '-')
	}
	if bq == 0 {
		return append(b, '0'), nil
	}
	// f is ±c × 2^q.
	m, e := shortest(c|1<<52, bq-1075)
	for m%10 == 0 { // strconv's shortest digits carry no trailing zeros
		m /= 10
		e++
	}
	abs := math.Abs(f)
	return appendDecimal(b, m, e, abs < 1e-6 || abs >= 1e21), nil
}

// shortest returns Schubfach's m × 10^e for the normal float64 c × 2^q
// (2^52 <= c < 2^53): the decimal with the fewest digits that parses
// back to it, the closer of two candidates, ties to even. It follows
// the paper's reference implementation (figures 7 to 9); m may carry
// trailing zeros.
func shortest(c uint64, q int) (m uint64, e int) {
	out := c & 1 // bounds that round to c are inclusive for even c
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 || q == -1074 {
		cbl = cb - 2
		k = int(int64(q) * 661971961083 >> 41) // ⌊q·log10 2⌋
	} else {
		// At a power of two the gap below is half the gap above:
		// k = ⌊log10(¾·2^q)⌋.
		cbl = cb - 1
		k = int((int64(q)*661971961083 - 274743187321) >> 41)
	}
	h := q + int(int64(-k)*913124641741>>38) + 2 // q + ⌊log2 10^-k⌋ + 2

	// g = ⌊10^-k × 2^r⌋ + 1 for 2^125 <= g < 2^126, in 63-bit limbs:
	// pow10Table's 128 bits, shifted right by 2.
	row := pow10Table[-k-pow10Min]
	lo := (row[1]<<62 | row[0]>>2) + 1
	hi := row[1] >> 2
	if lo == 0 {
		hi++
	}
	g1, g0 := hi<<1|lo>>63, lo&(1<<63-1)

	vb := roundToOdd(g1, g0, cb<<h)
	vbl := roundToOdd(g1, g0, cbl<<h)
	vbr := roundToOdd(g1, g0, cbr<<h)

	s := vb >> 2
	if s >= 100 {
		// Does one digit fewer fit? At most one of its two candidates
		// can: the interval is narrower than 10^(k+1).
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	// Both fit: the closer one, ties to even.
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// roundToOdd returns cp × g × 2^-127 rounded to odd, g = g1·2^63 + g0.
func roundToOdd(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&(1<<63-1)+(1<<63-1))>>63
}

// appendDecimal appends m × 10^e, for m > 0 without trailing zeros, in
// json.Marshal's layout: with expForm, d.ddde±x with no leading zero in
// x; otherwise the plain decimal. The digits are rendered once, eight
// to a store, and copied straight to their place around the point.
func appendDecimal(b []byte, m uint64, e int, expForm bool) []byte {
	var buf [24]byte
	n := putDigits(&buf, m)
	d := buf[len(buf)-n:]
	if expForm {
		b = append(b, d[0])
		if n > 1 {
			b = append(b, '.')
			b = append(b, d[1:]...)
		}
		b = append(b, 'e')
		x := e + n - 1
		if x >= 0 {
			b = append(b, '+')
		}
		return strconv.AppendInt(b, int64(x), 10)
	}
	switch dp := n + e; {
	case dp <= 0: // 0.000ddd
		b = append(b, "0."...)
		b = append(b, zeros[:-dp]...)
		return append(b, d...)
	case dp < n: // ddd.ddd
		b = append(b, d[:dp]...)
		b = append(b, '.')
		return append(b, d[dp:]...)
	default: // ddd000
		b = append(b, d...)
		return append(b, zeros[:dp-n]...)
	}
}

// zeros pads 'f' form, which json.Marshal uses from 1e-6 up to 1e21: at
// most 5 zeros after the point and 20 before it.
const zeros = "00000000000000000000"

// pow10Uint holds 10^k for k in [0, 19], every power of ten a uint64
// holds.
var pow10Uint = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen returns the number of decimal digits of m > 0.
func decimalLen(m uint64) int {
	// t = ⌊bitlen × log10 2⌋ is the count or one less.
	t := bits.Len64(m) * 1233 >> 12
	if m < pow10Uint[t] {
		return t
	}
	return t + 1
}

// putDigits writes m > 0's decimal digits to the end of buf and returns
// how many it wrote: the last eight, the eight before them, and the
// rest, one eightDigits store each.
func putDigits(buf *[24]byte, m uint64) int {
	n := decimalLen(m)
	hi, lo := m/1e8, m%1e8
	binary.LittleEndian.PutUint64(buf[16:], eightDigits(lo))
	if n > 8 {
		binary.LittleEndian.PutUint64(buf[8:], eightDigits(hi%1e8))
		if n > 16 {
			binary.LittleEndian.PutUint64(buf[:8], eightDigits(hi/1e8))
		}
	}
	return n
}

// eightDigits returns v < 1e8 as eight ASCII digits, zero-padded, in
// the order a little-endian store writes them: the most significant in
// the low byte. It splits v by multiply–shift, all lanes at once: into
// two four-digit halves in 32-bit lanes, each half into two two-digit
// quarters in 16-bit lanes (x·10486 >> 20 is x/100 for x < 10^4), and
// each quarter into its two digits in bytes (x·103 >> 10 is x/10 for
// x < 100). No lane's product reaches into the next.
func eightDigits(v uint64) uint64 {
	x := v/10000 | v%10000<<32
	h := x * 10486 >> 20 & (0x7F<<32 | 0x7F)
	x = h | (x-h*100)<<16
	t := x * 103 >> 10 & 0x000F_000F_000F_000F
	x = t | (x-t*10)<<8
	return x + 0x3030_3030_3030_3030
}

// isEightDigits reports whether all eight bytes of x are ASCII digits,
// 0x30 to 0x39: each high nibble is 3, and stays 3 when 6 is added.
// Adding 6 carries from one byte into the next only where that byte's
// high nibble is not 3, which the first test already rejects.
func isEightDigits(x uint64) bool {
	return x&0xF0F0_F0F0_F0F0_F0F0|(x+0x0606_0606_0606_0606)&0xF0F0_F0F0_F0F0_F0F0>>4 == 0x3333_3333_3333_3333
}

// parseEightDigits returns the value of the eight ASCII digits in x, as
// a little-endian load reads them, the first the most significant. It
// combines digits into pairs, pairs into fours and fours into the
// result, each level all lanes at once.
func parseEightDigits(x uint64) uint64 {
	x -= 0x3030_3030_3030_3030
	x = x*10 + x>>8 // two-digit values in bytes 0, 2, 4 and 6
	const pairs = 0x0000_00FF_0000_00FF
	return (x&pairs*(100+1000000<<32) + x>>16&pairs*(1+10000<<32)) >> 32
}
