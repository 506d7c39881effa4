package client

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync"
)

// This file is the one-pass JSON codec of the two request bodies that
// carry pulses, CompileRequest and BatchRequest. Those bodies are
// megabytes of I/Q samples as decimal text, and reflection-based
// encoding/json spent most of a compile request's time on them. The
// codec writes exactly the bytes json.Marshal writes, and accepts,
// rejects and fills exactly as json.Unmarshal does into a zero value;
// FuzzPulseRequestJSON holds it to encoding/json, which stays the
// reference. It is called directly, not through json.Marshaler and
// json.Unmarshaler: encoding/json would wrap it in a validation scan
// and a compaction pass of its own.
//
// A scheduled circuit plays the same calibrated pulse many times, so a
// batch body repeats whole sample arrays. Within one batch body each
// distinct array is written, and read, once: the encoder copies a
// repeat's text from earlier in its buffer, and the decoder copies a
// repeat's values from the array that text already decoded into. What
// decides a repeat is the float64 bits on the way out and the bytes on
// the way in, never a hash alone, and nothing is kept past the call.
//
// Within one array, a calibrated pulse's flat top repeats one sample:
// about 71% of a library's samples equal the one before them. Both
// ends copy such a sample's text or value from its predecessor instead
// of converting it, decided the same way, by bits out and bytes in.

// maxFloatLen bounds one encoded float64 with its separator: a sign, 17
// significant digits, a point and up to five leading zeros in 'f' form
// below 1, or a point and a four-byte exponent in 'e' form.
const maxFloatLen = 26

// maxPulseOverhead bounds a pulse's keys, punctuation, two ints and
// sample rate, its separator, and its gate name at six bytes per byte
// (the \u00XX escape).
const maxPulseOverhead = 160

// maxRequestOverhead bounds a request's top-level keys and options,
// before its strings' bytes.
const maxRequestOverhead = 512

// sizeBound bounds the encoded size of r, so the client's one buffer
// never regrows.
func (r *CompileRequest) sizeBound() int {
	return requestBound(r.Image, r.Options) + pulseBound(&r.Pulse)
}

func (r *BatchRequest) sizeBound() int {
	n := requestBound(r.Image, r.Options)
	for i := range r.Pulses {
		n += pulseBound(&r.Pulses[i])
	}
	return n
}

func requestBound(image string, o *CompileOptions) int {
	n := maxRequestOverhead + 6*len(image)
	if o != nil {
		n += 6 * len(o.Codec)
	}
	return n
}

func pulseBound(p *PulseSpec) int {
	return maxPulseOverhead + 6*len(p.Gate) + maxFloatLen*(len(p.I)+len(p.Q))
}

// appendCompileRequest appends r's JSON encoding to b: json.Marshal's
// bytes, without reflection. One pulse has nothing to repeat but q
// equal to i, so it writes every array.
func appendCompileRequest(b []byte, r *CompileRequest) ([]byte, error) {
	b = appendImage(b, r.Image)
	b = append(b, `"pulse":`...)
	b, err := appendPulse(b, &r.Pulse, nil)
	if err != nil {
		return nil, err
	}
	if b, err = appendOptions(b, r.Options); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// appendBatchRequest appends r's JSON encoding to b: json.Marshal's
// bytes, without reflection, writing each distinct sample array once.
func appendBatchRequest(b []byte, r *BatchRequest) ([]byte, error) {
	b = appendImage(b, r.Image)
	b = append(b, `"pulses":`...)
	if r.Pulses == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		// Twice as many slots as arrays: the table never fills.
		seen := make([]sampleText, 1<<bits.Len(uint(4*len(r.Pulses))))
		for i := range r.Pulses {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendPulse(b, &r.Pulses[i], seen); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	b, err := appendOptions(b, r.Options)
	if err != nil {
		return nil, err
	}
	if r.IncludeImage {
		b = append(b, `,"include_image":true`...)
	}
	return append(b, '}'), nil
}

// appendImage opens a request object with its omitempty image name.
func appendImage(b []byte, image string) []byte {
	b = append(b, '{')
	if image == "" {
		return b
	}
	b = append(b, `"image":`...)
	b = appendString(b, image)
	return append(b, ',')
}

// appendOptions appends the omitempty options member. Options are a
// few bytes, so encoding/json writes them.
func appendOptions(b []byte, o *CompileOptions) ([]byte, error) {
	if o == nil {
		return b, nil
	}
	ob, err := json.Marshal(o)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"options":`...)
	return append(b, ob...), nil
}

// appendPulse appends p, its sample arrays through appendSamples.
func appendPulse(b []byte, p *PulseSpec, seen []sampleText) ([]byte, error) {
	b = append(b, `{"gate":`...)
	b = appendString(b, p.Gate)
	b = append(b, `,"qubit":`...)
	b = strconv.AppendInt(b, int64(p.Qubit), 10)
	b = append(b, `,"target":`...)
	b = strconv.AppendInt(b, int64(p.Target), 10)
	b = append(b, `,"sample_rate":`...)
	b, err := appendFloat(b, p.SampleRate)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"i":`...)
	if b, err = appendSamples(b, p.I, seen); err != nil {
		return nil, err
	}
	b = append(b, `,"q":`...)
	if b, err = appendSamples(b, p.Q, seen); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// sampleText is a sample array already written or read in the current
// body: its values, where its text lies in the body, and (in the
// encoder's table, which is not keyed by it) its hash.
type sampleText struct {
	hash     uint64
	vals     []float64
	off, end int
}

// appendSamples appends fs as appendFloats does. Given a table, an
// array whose bits equal an earlier array's in the same body copies
// that array's text from b: the text is a function of the bits, so the
// bytes are the same, and sizeBound still holds. seen is open-addressed
// by hashBits and never full; an array that finds a different array
// under its hash is written and not recorded.
func appendSamples(b []byte, fs []float64, seen []sampleText) ([]byte, error) {
	if seen == nil || len(fs) == 0 {
		return appendFloats(b, fs)
	}
	h := hashBits(fs)
	mask := uint64(len(seen) - 1)
	i := h & mask
	for seen[i].vals != nil && seen[i].hash != h {
		i = (i + 1) & mask
	}
	s := &seen[i]
	if s.vals != nil {
		if sameBits(s.vals, fs) {
			return append(b, b[s.off:s.end]...), nil
		}
		return appendFloats(b, fs)
	}
	off := len(b)
	b, err := appendFloats(b, fs)
	if err != nil {
		return nil, err
	}
	*s = sampleText{hash: h, vals: fs, off: off, end: len(b)}
	return b, nil
}

// hashBits hashes the bit patterns of fs in two multiply–xorshift
// lanes, which keep two multiplies in flight, then mixes the lanes.
func hashBits(fs []float64) uint64 {
	const m1, m2 = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9
	h1, h2 := uint64(len(fs)), uint64(0)
	i := 0
	for ; i+1 < len(fs); i += 2 {
		h1 = (h1 ^ math.Float64bits(fs[i])) * m1
		h2 = (h2 ^ math.Float64bits(fs[i+1])) * m2
		h1 ^= h1 >> 29
		h2 ^= h2 >> 29
	}
	if i < len(fs) {
		h1 = (h1 ^ math.Float64bits(fs[i])) * m1
	}
	h := (h1 ^ h2>>31 ^ h2<<33) * m2
	return h ^ h>>32
}

// sameBits reports whether a and b hold the same bit patterns: -0 and
// 0 are written differently, and == would take them as equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, f := range a {
		if math.Float64bits(f) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// appendFloats appends fs as a JSON array. A sample whose bits equal
// its predecessor's copies that one's text instead of converting
// again: equal bits give equal text, and 0 and -0 differ in their bits.
func appendFloats(b []byte, fs []float64) ([]byte, error) {
	if fs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	// The previous sample's bits and its text, b[ps:pe].
	var prev uint64
	ps, pe := 0, 0
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
			if math.Float64bits(f) == prev {
				b = append(b, b[ps:pe]...)
				continue
			}
		}
		ps, prev = len(b), math.Float64bits(f)
		var err error
		if b, err = appendFloat(b, f); err != nil {
			return nil, err
		}
		pe = len(b)
	}
	return append(b, ']'), nil
}

// appendString writes s quoted. A string with anything encoding/json
// escapes (controls, quotes, backslashes, the HTML characters <, > and
// &, and every byte outside ASCII) goes through encoding/json itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// maxDepth is encoding/json's nesting limit for arrays and objects.
const maxDepth = 10000

// Member names in field order, for field.
var (
	compileFields = []string{"image", "pulse", "options"}
	batchFields   = []string{"image", "pulses", "options", "include_image"}
	pulseFields   = []string{"gate", "qubit", "target", "sample_rate", "i", "q"}
	optionFields  = []string{"codec", "window", "threshold", "fidelity_target", "mse_target", "adaptive"}
)

// DecodeCompileRequest decodes a POST /v1/compile body into r. It
// accepts, rejects and fills exactly as json.Unmarshal into a zero
// CompileRequest, except that r's sample arrays are reused: nothing of
// r's previous contents shows through, but a pooled r keeps its I/Q
// capacity from request to request (an absent or empty array may then
// read as empty rather than nil). Nothing in r aliases data.
func DecodeCompileRequest(data []byte, r *CompileRequest) error {
	r.Pulse.reset()
	*r = CompileRequest{Pulse: r.Pulse}
	d := decoder{data: data}
	return d.decode(func(key []byte) error {
		switch field(key, compileFields) {
		case 0:
			return d.str(&r.Image)
		case 1:
			return d.pulse(&r.Pulse)
		case 2:
			return d.options(&r.Options)
		}
		return d.skip()
	})
}

// DecodeBatchRequest decodes a POST /v1/compile/batch body into r, as
// DecodeCompileRequest does: exactly as json.Unmarshal into a zero
// BatchRequest, keeping the capacity of r's pulse list and of every
// pulse's I/Q arrays, which must not share memory with each other (as
// in a pooled r only these decoders fill). A sample array whose text
// repeats an earlier one's in data is copied, not parsed again.
func DecodeBatchRequest(data []byte, r *BatchRequest) error {
	ps := r.Pulses[:cap(r.Pulses)]
	for i := range ps {
		ps[i].reset()
	}
	*r = BatchRequest{Pulses: ps[:0]}
	seen := sampleTables.Get().(map[uint64]sampleText)
	defer releaseSampleTable(seen)
	d := decoder{data: data, seen: seen}
	return d.decode(func(key []byte) error {
		switch field(key, batchFields) {
		case 0:
			return d.str(&r.Image)
		case 1:
			return decodeSlice(&d, &r.Pulses, d.pulse)
		case 2:
			return d.options(&r.Options)
		case 3:
			return d.bool(&r.IncludeImage)
		}
		return d.skip()
	})
}

// reset zeroes p but keeps its I/Q arrays, zeroed too: encoding/json
// leaves an array element it decodes null into as it was, which in a
// zero value is 0.
func (p *PulseSpec) reset() {
	i, q := p.I[:cap(p.I)], p.Q[:cap(p.Q)]
	clear(i)
	clear(q)
	*p = PulseSpec{I: i[:0], Q: q[:0]}
}

// sampleTables holds the batch decoder's tables of the sample arrays
// already read in a body, keyed by a maphash of their text.
var sampleTables = sync.Pool{New: func() any { return make(map[uint64]sampleText) }}

// sampleSeed keys the text hash; one per process suffices, since a
// colliding pair of arrays costs only a parse.
var sampleSeed = maphash.MakeSeed()

// releaseSampleTable empties a table, which points into a request's
// body and arrays, and pools it; it keeps its capacity.
func releaseSampleTable(seen map[uint64]sampleText) {
	clear(seen)
	sampleTables.Put(seen)
}

// decoder walks one JSON body. Each method decodes the value at d.off,
// skipping the whitespace before it, and leaves d.off just past it.
type decoder struct {
	data  []byte
	off   int
	depth int
	// seen records the sample arrays decoded so far in a batch body; it
	// is nil in a compile body and once repeats are no longer trusted.
	seen map[uint64]sampleText
}

// decode decodes the whole body as one object, given its members.
func (d *decoder) decode(member func(key []byte) error) error {
	if err := d.object(member); err != nil {
		return err
	}
	if d.next(); d.off < len(d.data) {
		return d.fail("end of input after the top-level value")
	}
	return nil
}

// next skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) next() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// fail reports input that is malformed, or of the wrong JSON type for
// its field, at the current offset.
func (d *decoder) fail(want string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("client: unexpected end of JSON input, want %s", want)
	}
	return fmt.Errorf("client: unexpected %q at offset %d, want %s", d.data[d.off], d.off, want)
}

// field returns the index of key among names, or -1: an exact match
// first, then a case-insensitive one, as encoding/json matches keys.
func field(key []byte, names []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return i
		}
	}
	return -1
}

// object decodes an object, calling member at each value; null leaves
// the target as it is.
func (d *decoder) object(member func(key []byte) error) error {
	switch d.next() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.fail("object")
	}
	return d.list('}', func() error {
		if d.next() != '"' {
			return d.fail("object key")
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		if d.next() != ':' {
			return d.fail("':' after object key")
		}
		d.off++
		return member(key)
	})
}

// list decodes the elements or members of the array or object opening
// at d.off, calling each at every one, up to the closing byte.
func (d *decoder) list(closing byte, each func() error) error {
	if d.depth++; d.depth > maxDepth {
		return d.fail(fmt.Sprintf("at most %d levels of nesting", maxDepth))
	}
	d.off++
	if d.next() == closing {
		d.off++
		d.depth--
		return nil
	}
	for {
		if err := each(); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.off++
		case closing:
			d.off++
			d.depth--
			return nil
		default:
			return d.fail(fmt.Sprintf("',' or '%c'", closing))
		}
	}
}

// decodeSlice decodes an array into *dst as encoding/json fills a
// slice: elements are decoded in place over what the backing array
// holds, the slice grows as append grows it, [] gives an empty non-nil
// slice and null gives nil.
func decodeSlice[T any](d *decoder, dst *[]T, elem func(*T) error) error {
	switch d.next() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.fail("array")
	}
	s, n := *dst, 0
	err := d.list(']', func() error {
		if n == cap(s) {
			var zero T
			s = append(s, zero)
		}
		s = s[:max(len(s), n+1)]
		n++
		return elem(&s[n-1])
	})
	if n == 0 {
		s = []T{}
	}
	*dst = s[:n]
	return err
}

func (d *decoder) pulse(p *PulseSpec) error {
	return d.object(func(key []byte) error {
		switch field(key, pulseFields) {
		case 0:
			return d.str(&p.Gate)
		case 1:
			return d.int(&p.Qubit)
		case 2:
			return d.int(&p.Target)
		case 3:
			return d.float(&p.SampleRate)
		case 4:
			return d.samples(&p.I)
		case 5:
			return d.samples(&p.Q)
		}
		return d.skip()
	})
}

// samples decodes a pulse's i or q array into *dst as decodeSlice does.
// An array whose text, from '[' to the first ']', is byte-identical to
// one already decoded in this body takes a copy of that array's values
// instead of being parsed. Each array is compared with at most one
// recorded array, the one under its text's hash, so the work stays
// linear in the body whatever it holds.
//
// Within an array, a sample whose text repeats the last converted
// sample's takes that one's value instead of converting again. The
// number there is that text only if the byte after it cannot extend a
// number: then the grammar walk would stop where the copy stops, and
// anything it would reject is rejected after the copy, at the same
// offset. A null keeps the element's old value and so remembers no
// text. The string compare is the runtime's memequal, eight bytes per
// load.
func (d *decoder) samples(dst *[]float64) error {
	// The last sample converted: its text, data[ps:ps+pn] (pn is 0
	// when there is none), and its value.
	var ps, pn int
	var pv float64
	sample := func(f *float64) error {
		d.next()
		if end := d.off + pn; pn > 0 && end < len(d.data) &&
			string(d.data[d.off:end]) == string(d.data[ps:ps+pn]) && !extendsNumber(d.data[end]) {
			*f = pv
			d.off = end
			return nil
		}
		start := d.off
		err := d.float(f)
		if pn = 0; err == nil && d.data[start] != 'n' {
			ps, pn, pv = start, d.off-start, *f
		}
		return err
	}
	if d.seen != nil && len(*dst) > 0 {
		// A repeated "i", "q" or "pulses" member decodes in place over
		// an array a recorded span may point at.
		d.seen = nil
	}
	if d.seen == nil || d.next() != '[' {
		return decodeSlice(d, dst, sample)
	}
	start := d.off
	n := bytes.IndexByte(d.data[start:], ']')
	if n < 0 {
		return decodeSlice(d, dst, sample)
	}
	end := start + n + 1
	text := d.data[start:end]
	h := maphash.Bytes(sampleSeed, text)
	if s, ok := d.seen[h]; ok {
		if !bytes.Equal(d.data[s.off:s.end], text) {
			return decodeSlice(d, dst, sample)
		}
		// *dst is empty: fill its backing array, never alias s's.
		*dst = append(*dst, s.vals...)
		d.off = end
		return nil
	}
	if err := decodeSlice(d, dst, sample); err != nil {
		return err
	}
	// A null element keeps the destination's old value, so its array
	// is more than a function of its text.
	if d.off == end && len(*dst) > 0 && bytes.IndexByte(text, 'n') < 0 {
		d.seen[h] = sampleText{vals: *dst, off: start, end: end}
	}
	return nil
}

// extendsNumber reports whether c can continue a JSON number's text.
func extendsNumber(c byte) bool {
	return isDigit(c) || c == '.' || c|0x20 == 'e' || c == '+' || c == '-'
}

// options decodes into *dst, allocating it on first use; null sets it
// to nil.
func (d *decoder) options(dst **CompileOptions) error {
	if d.next() == 'n' {
		*dst = nil
		return d.literal("null")
	}
	if *dst == nil {
		*dst = new(CompileOptions)
	}
	o := *dst
	return d.object(func(key []byte) error {
		switch field(key, optionFields) {
		case 0:
			return d.str(&o.Codec)
		case 1:
			return d.int(&o.Window)
		case 2:
			return d.float(&o.Threshold)
		case 3:
			return d.float(&o.FidelityTarget)
		case 4:
			return d.float(&o.MSETarget)
		case 5:
			if d.next() == 'n' {
				o.Adaptive = nil
				return d.literal("null")
			}
			var v bool
			if err := d.bool(&v); err != nil {
				return err
			}
			o.Adaptive = &v
			return nil
		}
		return d.skip()
	})
}

// str decodes a string; null leaves *dst as it is.
func (d *decoder) str(dst *string) error {
	switch d.next() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.fail("string")
	}
	start := d.off
	plain, err := d.skipString()
	if err != nil {
		return err
	}
	if plain {
		*dst = string(d.data[start+1 : d.off-1])
		return nil
	}
	// Escapes and non-ASCII text (which encoding/json repairs to valid
	// UTF-8) are rare in requests: encoding/json unquotes them.
	return json.Unmarshal(d.data[start:d.off], dst)
}

// key decodes an object key; a plain one aliases data.
func (d *decoder) key() ([]byte, error) {
	start := d.off
	plain, err := d.skipString()
	if err != nil {
		return nil, err
	}
	if plain {
		return d.data[start+1 : d.off-1], nil
	}
	var s string
	err = json.Unmarshal(d.data[start:d.off], &s)
	return []byte(s), err
}

// skipString moves past the string at d.off, checking its syntax, and
// reports whether it is plain: free of escapes and of non-ASCII bytes.
func (d *decoder) skipString() (plain bool, err error) {
	plain = true
	data := d.data
	for i := d.off + 1; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			return plain, nil
		case c == '\\':
			plain = false
			switch {
			case i+1 < len(data) && strings.IndexByte(`"\\/bfnrt`, data[i+1]) >= 0:
				i++
			case i+5 < len(data) && data[i+1] == 'u' &&
				isHex(data[i+2]) && isHex(data[i+3]) && isHex(data[i+4]) && isHex(data[i+5]):
				i += 5
			default:
				d.off = i
				return false, d.fail("escape sequence")
			}
		case c < 0x20:
			d.off = i
			return false, d.fail("string character")
		case c >= 0x80:
			plain = false
		}
	}
	d.off = len(data)
	return false, d.fail("closing '\"'")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number moves past the number at d.off and returns its text, checked
// against the JSON grammar (strconv alone would also take "Inf", hex
// and digit separators), reading its value into the zero *v on the way.
func (d *decoder) number(v *decimal) ([]byte, error) {
	data, start := d.data, d.off
	if d.off < len(data) && data[d.off] == '-' {
		v.neg = true
		d.off++
	}
	if d.off < len(data) && data[d.off] == '0' {
		d.off++
	} else if err := d.digits(v, false, "digit"); err != nil {
		return nil, err
	}
	if d.off < len(data) && data[d.off] == '.' {
		d.off++
		if err := d.digits(v, true, "digit after decimal point"); err != nil {
			return nil, err
		}
	}
	if d.off < len(data) && (data[d.off] == 'e' || data[d.off] == 'E') {
		d.off++
		neg := d.off < len(data) && data[d.off] == '-'
		if neg || d.off < len(data) && data[d.off] == '+' {
			d.off++
		}
		e, i := 0, d.off
		for ; i < len(data) && isDigit(data[i]); i++ {
			if e < 10000 { // strconv's saturation
				e = e*10 + int(data[i]-'0')
			}
		}
		if i == d.off {
			return nil, d.fail("digit in exponent")
		}
		d.off = i
		if neg {
			e = -e
		}
		v.exp += e
	}
	return data[start:d.off], nil
}

// digits moves past a run of at least one digit of the integer part or
// (frac) the fraction, folding each into v: eight at a time while the
// next eight bytes are digits that fit under the 19-digit cap, then one
// at a time.
func (d *decoder) digits(v *decimal, frac bool, want string) error {
	data, i := d.data, d.off
	if frac && v.man == 0 {
		// Leading zeros scale the value but are not significant.
		for i < len(data) && data[i] == '0' {
			i++
		}
		v.exp -= i - d.off
	}
	j, end, man := i, min(len(data), i+19-v.nd), v.man
	for ; i+8 <= end; i += 8 {
		x := binary.LittleEndian.Uint64(data[i:])
		if !isEightDigits(x) {
			break
		}
		man = man*1e8 + parseEightDigits(x)
	}
	for ; i < end && isDigit(data[i]); i++ {
		man = man*10 + uint64(data[i]-'0')
	}
	v.man = man
	v.nd += i - j
	if frac {
		v.exp -= i - j
	}
	j = i
	for ; i < len(data) && isDigit(data[i]); i++ {
		v.trunc = v.trunc || data[i] != '0'
	}
	if !frac {
		v.exp += i - j
	}
	if i == d.off {
		return d.fail(want)
	}
	d.off = i
	return nil
}

// numberOrNull returns the text of the number at d.off, reading its
// value into *v, or nil for null, which leaves a numeric field as it is.
func (d *decoder) numberOrNull(v *decimal) ([]byte, error) {
	switch c := d.next(); {
	case c == 'n':
		return nil, d.literal("null")
	case c == '-' || isDigit(c):
		return d.number(v)
	}
	return nil, d.fail("number")
}

// float decodes a number into *dst. A number out of float64's range is
// an error, as in encoding/json.
func (d *decoder) float(dst *float64) error {
	var v decimal
	num, err := d.numberOrNull(&v)
	if num == nil {
		return err
	}
	f, ok := v.float()
	if !ok {
		// strconv decides the rare number the kernels cannot, and
		// reports the range errors.
		if f, err = strconv.ParseFloat(string(num), 64); err != nil {
			return fmt.Errorf("client: number %s out of float64 range", num)
		}
	}
	*dst = f
	return nil
}

// int decodes an integer into *dst. Fractions, exponents and overflow
// are errors, as in encoding/json.
func (d *decoder) int(dst *int) error {
	var v decimal
	num, err := d.numberOrNull(&v)
	if num == nil {
		return err
	}
	n, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("client: number %s is not an int", num)
	}
	*dst = int(n)
	return nil
}

// bool decodes true or false into *dst; null leaves it as it is.
func (d *decoder) bool(dst *bool) error {
	switch d.next() {
	case 'n':
		return d.literal("null")
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	}
	return d.fail("boolean")
}

// literal moves past lit, which must come next.
func (d *decoder) literal(lit string) error {
	if !bytes.HasPrefix(d.data[d.off:], []byte(lit)) {
		return d.fail(lit)
	}
	d.off += len(lit)
	return nil
}

// skip moves past a value of a member no field takes, checking that it
// is valid JSON.
func (d *decoder) skip() error {
	switch c := d.next(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		return d.list(']', d.skip)
	case c == '"':
		_, err := d.skipString()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		var v decimal
		_, err := d.number(&v)
		return err
	}
	return d.fail("value")
}
