package client

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

var floatTextN = flag.Int("floattext.n", 1<<17,
	"random bit patterns and short decimals TestFloatTextRandom checks (-short: 1/32 of it)")

// decodeFloat decodes text, one JSON value, into a float64 through the
// request decoder's number path.
func decodeFloat(text []byte) (float64, error) {
	d := decoder{data: text}
	var f float64
	if err := d.float(&f); err != nil {
		return 0, err
	}
	if d.next(); d.off < len(d.data) {
		return 0, d.fail("end of input after the top-level value")
	}
	return f, nil
}

// checkFormat holds appendFloat to json.Marshal, and its bytes to
// parsing back to f's bits.
func checkFormat(t testing.TB, f float64) {
	t.Helper()
	want, werr := json.Marshal(f)
	got, err := appendFloat(nil, f)
	if (werr == nil) != (err == nil) {
		t.Fatalf("%v (%#x): json.Marshal error %v, appendFloat error %v", f, math.Float64bits(f), werr, err)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%v (%#x): appendFloat wrote %q, json.Marshal %q", f, math.Float64bits(f), got, want)
	}
	back, err := decodeFloat(got)
	if err != nil || math.Float64bits(back) != math.Float64bits(f) {
		t.Fatalf("%q decodes to %v (%#x), error %v; want %#x", got, back, math.Float64bits(back), err, math.Float64bits(f))
	}
}

// checkParse holds the decoder's number path to json.Unmarshal into a
// float64: the same accept or reject, and the same bits.
func checkParse(t testing.TB, text []byte) {
	t.Helper()
	var want float64
	werr := json.Unmarshal(text, &want)
	got, err := decodeFloat(text)
	if (werr == nil) != (err == nil) {
		t.Fatalf("%q: json.Unmarshal error %v, decoder error %v", text, werr, err)
	}
	if err == nil && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: decoded %v (%#x), json.Unmarshal %v (%#x)", text, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// hardDecimals are inputs where a float parser goes wrong first: signed
// zeros, underflow and overflow, the extremes of the normal and
// subnormal ranges, halfway ties, mantissas past 19 digits and
// saturating exponents.
var hardDecimals = []string{
	"0", "-0", "0.0", "-0.0e5", "0e99999999999999", "-0e-99999999999999",
	"1e-400", "-1e-400", "2e-324", "3e-324",
	"1e400", "-1e400", "1.7976931348623159e308", "1e99999999999999999999",
	"1.7976931348623158e308", "1.7976931348623157e308", "2.2250738585072011e-308",
	"2.2250738585072012e-308", "4.9406564584124654e-324",
	"2.4703282292062327e-324", "2.4703282292062328e-324",
	"9007199254740993", "9007199254740992", "9007199254740995", "-9007199254740993",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.000000000000000111022302462515654042363166809082031251",
	"1.00000000000000011102230246251565404236316680908203124",
	"12345678901234567890", "12345678901234567891", "1234567890123456789.5",
	"123456789012345678900000000000", "123456789012345678900000000001",
	"0.000123456789012345678900000000000", "0.000123456789012345678900000000003",
	"1e23", "8.41e21", "1E+2", "1e22", "1e-22", "4503599627370497.5",
	"1e-7", "1e21", "1e-6", "9.999999999999999e-7", "5e-324", "0.1", "-0.3",
	"0.0028950646130989225", "4540000000", "100000000000000000000000",
	"1" + strings.Repeat("0", 400) + "e-400",
	"0." + strings.Repeat("0", 10000) + "1e10005",
	"1." + strings.Repeat("0", 30) + "1",
}

func TestFloatTextHardCases(t *testing.T) {
	for _, s := range hardDecimals {
		want, werr := strconv.ParseFloat(s, 64)
		got, err := decodeFloat([]byte(s))
		if (werr == nil) != (err == nil) {
			t.Fatalf("%.40s: strconv error %v, decoder error %v", s, werr, err)
		}
		if err != nil {
			if msg := fmt.Sprintf("client: number %s out of float64 range", s); err.Error() != msg {
				t.Errorf("%.40s: error %q, want %q", s, err, msg)
			}
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%.40s: decoded %v (%#x), strconv %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		checkFormat(t, got)
	}

	// Powers of 2 and 10 across the range, where the spacing of float64s
	// changes, with both neighbours.
	var fs []float64
	for e := -1074; e <= 1023; e++ {
		fs = append(fs, math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		f, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
	}
	// Small integers, and integers around 2^53, past which float64s skip
	// some.
	for i := 1.0; i <= 1000; i++ {
		fs = append(fs, i)
	}
	for d := -3.0; d <= 4; d++ {
		fs = append(fs, 1<<53+d)
	}
	// Both sides of json.Marshal's 'e' form cutoffs, and the extremes.
	fs = append(fs, 1e-6, 9.99999e-7, 1.000001e-6, 1e21, 999999999999999900000, 1.0000000000000001e21,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1022-0x1p-1074, 123456.78901234567)
	for _, f := range fs {
		for _, g := range []float64{f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1))} {
			checkFormat(t, g)
			checkFormat(t, -g)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkFormat(t, f)
	}
}

// TestPow10Table pins rows of the table built at init against strconv's
// checked-in table.
func TestPow10Table(t *testing.T) {
	for _, row := range []struct {
		q      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-324, 0x52064CAC828675B9, 0xCF42894A5DCE35EA},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0, 0x8000000000000000},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		{308, 0x570F09EAA7EA7648, 0x8E679C2F5E44FF8F},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := pow10Table[row.q-pow10Min]; got != [2]uint64{row.lo, row.hi} {
			t.Errorf("1e%d: {%#x, %#x}, want {%#x, %#x}", row.q, got[0], got[1], row.lo, row.hi)
		}
	}
}

// TestEightDigits holds the eight-digit writer to strconv over every
// value in [0, 1e8) (-short: a stride through it), and the eight-digit
// fold to the writer's inverse.
func TestEightDigits(t *testing.T) {
	step := uint64(1)
	if testing.Short() {
		step = 997
	}
	var buf [9]byte
	var got [8]byte
	for v := uint64(0); v < 1e8; v += step {
		want := strconv.AppendUint(buf[:0], 1e8+v, 10)[1:] // zero-padded
		x := eightDigits(v)
		binary.LittleEndian.PutUint64(got[:], x)
		if string(got[:]) != string(want) {
			t.Fatalf("eightDigits(%d) wrote %q, want %q", v, got, want)
		}
		if back := parseEightDigits(x); back != v {
			t.Fatalf("parseEightDigits(%q) = %d, want %d", got, back, v)
		}
	}
}

// TestPutDigitsAtPowersOfTen holds the digit count and the digit writer
// to strconv where the count changes: at 10^k − 1 and 10^k, for every k
// a uint64 holds, and at the largest uint64.
func TestPutDigitsAtPowersOfTen(t *testing.T) {
	ms := []uint64{math.MaxUint64}
	for k := 1; k <= 19; k++ {
		p := uint64(math.Pow10(k))
		ms = append(ms, p-1, p)
	}
	for _, m := range ms {
		want := strconv.FormatUint(m, 10)
		if n := decimalLen(m); n != len(want) {
			t.Errorf("decimalLen(%d) = %d, want %d", m, n, len(want))
		}
		var buf [24]byte
		n := putDigits(&buf, m)
		if got := string(buf[len(buf)-n:]); got != want {
			t.Errorf("putDigits(%d) wrote %q, want %q", m, got, want)
		}
	}
}

// TestIsEightDigits puts each of the 256 byte values in each of the
// eight lanes of a word of digits: the word must be accepted exactly
// when the byte is a digit, and every accepted word must fold to
// strconv.ParseUint's value.
func TestIsEightDigits(t *testing.T) {
	for _, base := range []string{"00000000", "99999999", "31415926"} {
		for lane := range 8 {
			for c := range 256 {
				w := []byte(base)
				w[lane] = byte(c)
				x := binary.LittleEndian.Uint64(w)
				if got := isEightDigits(x); got != isDigit(byte(c)) {
					t.Fatalf("isEightDigits(%q) = %v", w, got)
				}
				if !isDigit(byte(c)) {
					continue
				}
				want, err := strconv.ParseUint(string(w), 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				if got := parseEightDigits(x); got != want {
					t.Fatalf("parseEightDigits(%q) = %d, want %d", w, got, want)
				}
			}
		}
	}
}

// randomDecimal returns a decimal of 1 to 17 significant digits, in 'f'
// or 'e' form, with an exponent reaching past float64's range.
func randomDecimal(rng *rand.Rand) string {
	digits := strconv.FormatUint(rng.Uint64N(uint64(math.Pow10(1+rng.IntN(17)))), 10)
	var s string
	switch p := 1 + rng.IntN(len(digits)); rng.IntN(4) {
	case 0:
		s = digits + "e" + strconv.Itoa(rng.IntN(700)-350)
	case 1:
		s = digits[:1] + "." + digits[1:] + "0E+" + strconv.Itoa(rng.IntN(330))
	case 2:
		s = "0." + strings.Repeat("0", rng.IntN(8)) + digits
	default:
		s = digits[:p] + "." + digits[p:] + "0"
	}
	if rng.IntN(2) == 0 {
		s = "-" + s
	}
	return s
}

// TestFloatTextRandom is the kernels' long differential run against
// strconv and encoding/json: random bit patterns and integers formatted
// and parsed back, and random short decimals parsed and then formatted
// with both neighbours. -floattext.n sets its size.
func TestFloatTextRandom(t *testing.T) {
	n := *floatTextN
	if testing.Short() {
		n /= 32
	}
	rng := rand.New(rand.NewPCG(15, 2101))
	for range n {
		checkFormat(t, math.Float64frombits(rng.Uint64()))
		checkFormat(t, float64(rng.Uint64N(1<<53)>>rng.IntN(53)))

		s := randomDecimal(rng)
		checkParse(t, []byte(s))
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			continue // out of range
		}
		for _, g := range []float64{f, math.Nextafter(f, math.Inf(-1)), math.Nextafter(f, math.Inf(1))} {
			checkFormat(t, g)
		}
	}
}

// FuzzFloatText is the kernels' differential target: bits must format
// to json.Marshal's bytes and parse back to the same bits, and any text
// must decode through the number path exactly as json.Unmarshal decodes
// it into a float64.
func FuzzFloatText(f *testing.F) {
	for i, s := range hardDecimals {
		if len(s) > 100 {
			continue // minimizing long inputs stalls the fuzzer
		}
		v, _ := strconv.ParseFloat(s, 64)
		f.Add(math.Float64bits(v)+uint64(i%3)-1, []byte(s))
	}
	for _, s := range []string{"", " 1 ", "null", "-", "1.", ".5", "+1", "01", "1e", "1e+", "Inf", "NaN", "0x1p3", "1_0", `"1"`, "[1]", "1 2"} {
		f.Add(uint64(0x7FF0000000000000), []byte(s))
	}
	f.Fuzz(func(t *testing.T, bits uint64, text []byte) {
		checkFormat(t, math.Float64frombits(bits))
		checkParse(t, text)
	})
}
