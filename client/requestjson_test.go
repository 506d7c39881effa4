package client

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"compaqt/bench"
	"compaqt/qctrl"
)

// libraryRequest is the batch request of a catalog machine's whole
// calibrated pulse library, as a client recompiling that machine sends.
func libraryRequest(tb testing.TB, machine string) *BatchRequest {
	tb.Helper()
	m, err := qctrl.ByName(machine)
	if err != nil {
		tb.Fatal(err)
	}
	lib := m.Library()
	r := &BatchRequest{Image: machine, Pulses: make([]PulseSpec, len(lib))}
	for i, p := range lib {
		r.Pulses[i] = FromPulse(p)
	}
	return r
}

// circuitRequest is the batch request of a catalog circuit scheduled on
// Guadalupe, as circuit-mix sends it: every gate's pulse in schedule
// order, each repeat with arrays of its own.
func circuitRequest(tb testing.TB, family string, qubits int) *BatchRequest {
	tb.Helper()
	c, err := bench.Generate(family, qubits, 1)
	if err != nil {
		tb.Fatal(err)
	}
	ps, err := bench.PulsesFor(qctrl.Guadalupe(), c)
	if err != nil {
		tb.Fatal(err)
	}
	r := &BatchRequest{Pulses: make([]PulseSpec, len(ps))}
	for i, p := range ps {
		r.Pulses[i] = FromPulse(p)
	}
	return r
}

// TestPulseRequestJSONMatchesEncodingJSON holds the codec to
// encoding/json on every catalog machine's library request: the same
// bytes out, the same values back, and a buffer sized by sizeBound
// that never regrows. -short checks the first four machines (5 to 27
// qubits); the rest add half a minute under -race.
func TestPulseRequestJSONMatchesEncodingJSON(t *testing.T) {
	machines := qctrl.MachineNames()
	if testing.Short() {
		machines = machines[:4]
	}
	var scratch BatchRequest
	for _, name := range machines {
		checkBatchCodec(t, name, libraryRequest(t, name), &scratch)
	}
}

// TestCircuitRequestJSONMatchesEncodingJSON does the same for
// scheduled circuits, whose bodies repeat whole sample arrays: every
// catalog family at 4 and 5 qubits, decoded into one scratch in turn.
func TestCircuitRequestJSONMatchesEncodingJSON(t *testing.T) {
	var scratch BatchRequest
	for _, f := range bench.Catalog() {
		for _, n := range []int{4, 5} {
			if !f.Supports(n) {
				continue
			}
			req := circuitRequest(t, f.Name, n)
			arrays, distinct := 0, map[string]bool{}
			for _, p := range req.Pulses {
				for _, fs := range [][]float64{p.I, p.Q} {
					b, _ := json.Marshal(fs)
					arrays++
					distinct[string(b)] = true
				}
			}
			if len(distinct) == arrays {
				t.Fatalf("%s-%d: no sample array repeats", f.Name, n)
			}
			checkBatchCodec(t, fmt.Sprintf("%s-%d", f.Name, n), req, &scratch)
		}
	}
}

// checkBatchCodec requires req to encode to json.Marshal's bytes into a
// buffer of sizeBound that never regrows, and those bytes to decode as
// json.Unmarshal does, into a zero value and into scratch, which still
// holds the previous request.
func checkBatchCodec(t *testing.T, name string, req *BatchRequest, scratch *BatchRequest) {
	t.Helper()
	want, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	bound := req.sizeBound()
	got, err := appendBatchRequest(make([]byte, 0, bound), req)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding differs from json.Marshal (%d vs %d bytes)", name, len(got), len(want))
	}
	if cap(got) != bound {
		t.Errorf("%s: buffer regrew from %d to %d bytes", name, bound, cap(got))
	}

	var ref BatchRequest
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	var fresh BatchRequest
	if err := DecodeBatchRequest(want, &fresh); err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if !reflect.DeepEqual(fresh, ref) {
		t.Fatalf("%s: decoded request differs from json.Unmarshal's", name)
	}
	if err := DecodeBatchRequest(want, scratch); err != nil {
		t.Fatalf("%s: decode into reused scratch: %v", name, err)
	}
	if !reflect.DeepEqual(*scratch, ref) {
		t.Fatalf("%s: reused scratch decodes differently from a zero value", name)
	}
}

// TestSampleRepeatsComparedInFull: a repeat is decided by the arrays'
// bits on the way out and their text on the way in, never by a hash
// alone or by ==. Each side is handed a table whose entry under an
// array's own hash holds [-0,1], and must still write or parse [0,1].
func TestSampleRepeatsComparedInFull(t *testing.T) {
	fs, negZero := []float64{0, 1}, []float64{math.Copysign(0, -1), 1}
	h := hashBits(fs)
	seen := make([]sampleText, 4)
	b := []byte(`[-0,1]`)
	seen[h&3] = sampleText{hash: h, vals: negZero, off: 0, end: len(b)}
	b, err := appendSamples(b, fs, seen)
	if err != nil || string(b) != `[-0,1][0,1]` {
		t.Fatalf("colliding encode wrote %q, %v", b, err)
	}

	data := []byte(`[-0,1][0,1]`)
	d := decoder{data: data, off: 6, seen: map[uint64]sampleText{
		maphash.Bytes(sampleSeed, data[6:]): {vals: negZero, off: 0, end: 6},
	}}
	var got []float64
	if err := d.samples(&got); err != nil || !sameBits(got, fs) || d.off != len(data) {
		t.Fatalf("colliding decode read %v to offset %d, %v", got, d.off, err)
	}
}

// sampleRunTables are arrays built from runs of one value, each a case
// the run paths must get right on both ends: a flat top, signed zeros
// (whose bits differ but compare equal), the smallest subnormal, the
// switch to exponent form at 1e21, and texts that are prefixes of the
// next value's text, where a copy that ignored the following byte
// would stop short.
var sampleRunTables = map[string][]float64{
	"flat top":        runs(0, 1, 0.018, 1, 0.0371, 2, 0.1234567890123456, 40, 0.0371, 2, 0.018, 1, 0, 1),
	"signed zeros":    runs(0, 1, minusZero, 1, 0, 1, minusZero, 2, 0, 2, minusZero, 3, 0, 3),
	"subnormal":       runs(5e-324, 4, -5e-324, 3, 5e-324, 1),
	"exponent switch": runs(1e20, 3, 1e21, 3, 1e20, 1, 1e21, 1, 1e-6, 2, 1e-7, 2),
	"prefix traps":    runs(1, 2, 10, 2, 1, 1, 100000, 2, 1, 1, 1.5, 2, 0.5, 2, 0.55, 2, 0.5, 1, -3, 2, -30, 1, 1, 1, 1e21, 2),
	"single":          runs(0.25, 1),
	"empty":           {},
}

var minusZero = math.Copysign(0, -1)

// runs builds an array from (value, count) pairs.
func runs(pairs ...float64) []float64 {
	var fs []float64
	for i := 0; i < len(pairs); i += 2 {
		for range int(pairs[i+1]) {
			fs = append(fs, pairs[i])
		}
	}
	return fs
}

// TestSampleRunsMatchEncodingJSON holds both run paths to the oracles:
// each table array encodes to json.Marshal's bytes, alone and as the i
// and q of compile and batch bodies, and decodes through both decoders,
// into a zero value and into reused scratch, to json.Unmarshal's bits.
func TestSampleRunsMatchEncodingJSON(t *testing.T) {
	var scratch sampleRunScratch
	for name, fs := range sampleRunTables {
		checkSampleRun(t, name, fs, &scratch)
	}
}

// sampleRunScratch is the reused scratch of both decoders.
type sampleRunScratch struct {
	compile CompileRequest
	batch   BatchRequest
}

// checkSampleRun holds fs to the oracles as TestSampleRunsMatchEncodingJSON
// describes.
func checkSampleRun(t *testing.T, name string, fs []float64, scratch *sampleRunScratch) {
	t.Helper()
	want, err := json.Marshal(fs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := appendFloats(nil, fs)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: appendFloats wrote %q, %v; json.Marshal %q", name, got, err, want)
	}
	// q is a different array: its runs start mid-run.
	p := PulseSpec{Gate: "X", SampleRate: 1, I: fs, Q: fs[len(fs)/3:]}
	compile := &CompileRequest{Pulse: p}
	batch := &BatchRequest{Pulses: []PulseSpec{p, {Gate: "Y", I: fs[len(fs)/2:], Q: fs}}}
	for _, body := range [][]byte{
		checkSampleRunEncode(t, name, compile, appendCompileRequest),
		checkSampleRunEncode(t, name, batch, appendBatchRequest),
	} {
		if err := checkSampleRunDecode(body, scratch); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func checkSampleRunEncode[T any](t *testing.T, name string, r *T, encode func([]byte, *T) ([]byte, error)) []byte {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := encode(nil, r)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: %T encodes as %q, %v; json.Marshal writes %q", name, r, got, err, want)
	}
	return want
}

// checkSampleRunDecode decodes body, a compile or a batch body, as
// json.Unmarshal does: the same accept or reject and, accepted, every
// sample array's bits, into a zero value and into scratch. It returns
// the codec's error, which is the same from both decodes.
func checkSampleRunDecode(body []byte, scratch *sampleRunScratch) error {
	if bytes.HasPrefix(body, []byte(`{"pulse":`)) {
		return checkPulsesDecode(body, DecodeCompileRequest, &scratch.compile,
			func(r *CompileRequest) []PulseSpec { return []PulseSpec{r.Pulse} })
	}
	return checkPulsesDecode(body, DecodeBatchRequest, &scratch.batch,
		func(r *BatchRequest) []PulseSpec { return r.Pulses })
}

func checkPulsesDecode[T any](body []byte, decode func([]byte, *T) error, scratch *T, pulses func(*T) []PulseSpec) error {
	var ref, fresh T
	refErr := json.Unmarshal(body, &ref)
	err, scratchErr := decode(body, &fresh), decode(body, scratch)
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("body %q: codec error %v, json.Unmarshal error %v", body, err, refErr)
	}
	if fmt.Sprint(err) != fmt.Sprint(scratchErr) {
		return fmt.Errorf("body %q: error %v into a zero value, %v into scratch", body, err, scratchErr)
	}
	if err != nil {
		return err
	}
	want := pulses(&ref)
	for _, got := range [][]PulseSpec{pulses(&fresh), pulses(scratch)} {
		if len(got) != len(want) {
			return fmt.Errorf("body %q: decoded %d pulses, json.Unmarshal %d", body, len(got), len(want))
		}
		for i := range want {
			if !sameBits(got[i].I, want[i].I) || !sameBits(got[i].Q, want[i].Q) {
				return fmt.Errorf("body %q: pulse %d decoded i %v q %v, json.Unmarshal i %v q %v",
					body, i, got[i].I, got[i].Q, want[i].I, want[i].Q)
			}
		}
	}
	return nil
}

// TestSampleRunsDecodeOnly feeds the decoders sample arrays json.Marshal
// never writes, where a repeat's text is followed by something other
// than a separator, or its predecessor was null. Each is accepted or
// rejected as encoding/json does, and rejected with the error a
// decoder that converts every sample gives, at the same offset.
func TestSampleRunsDecodeOnly(t *testing.T) {
	for _, c := range []struct {
		body, err string
	}{
		{`{"pulse":{"i":[1,1x]}}`, `client: unexpected 'x' at offset 18, want ',' or ']'`},
		{`{"pulses":[{"i":[1,1x]}]}`, `client: unexpected 'x' at offset 20, want ',' or ']'`},
		{`{"pulse":{"i":[1,1 1]}}`, `client: unexpected '1' at offset 19, want ',' or ']'`},
		{`{"pulses":[{"i":[1,1 1]}]}`, `client: unexpected '1' at offset 21, want ',' or ']'`},
		{`{"pulse":{"i":[1 , 1 ,1]}}`, ``},
		{`{"pulses":[{"i":[1 , 1 ,1]}]}`, ``},
		{`{"pulse":{"i":[0,01]}}`, `client: unexpected '1' at offset 18, want ',' or ']'`},
		{`{"pulses":[{"i":[0,01]}]}`, `client: unexpected '1' at offset 20, want ',' or ']'`},
		{`{"pulse":{"i":[1,1e5]}}`, ``},
		{`{"pulses":[{"i":[1,1e5]}]}`, ``},
		{`{"pulse":{"i":[1,1E5,1.5]}}`, ``},
		{`{"pulse":{"i":[1,null,1]}}`, ``},
		{`{"pulses":[{"i":[1,null,1]}]}`, ``},
		{`{"pulse":{"i":[1,1`, `client: unexpected end of JSON input, want ',' or ']'`},
		{`{"pulses":[{"i":[1,1`, `client: unexpected end of JSON input, want ',' or ']'`},
		{`{"pulse":{"i":[0.5,0.5.5]}}`, `client: unexpected '.' at offset 22, want ',' or ']'`},
		{`{"pulse":{"i":[-0,-0-]}}`, `client: unexpected '-' at offset 20, want ',' or ']'`},
		{`{"pulse":{"i":[1e5,1e5e]}}`, `client: unexpected 'e' at offset 22, want ',' or ']'`},
		{`{"pulse":{"i":[7,7+]}}`, `client: unexpected '+' at offset 18, want ',' or ']'`},
		{`{"pulse":{"i":[2,2.]}}`, `client: unexpected ']' at offset 19, want digit after decimal point`},
	} {
		// The scratch holds an earlier request.
		var scratch sampleRunScratch
		DecodeCompileRequest([]byte(`{"pulse":{"i":[9,9,9]}}`), &scratch.compile)
		DecodeBatchRequest([]byte(`{"pulses":[{"i":[9,9,9]}]}`), &scratch.batch)
		err := checkSampleRunDecode([]byte(c.body), &scratch)
		if got := fmt.Sprint(err); err == nil && c.err != "" || err != nil && got != c.err {
			t.Errorf("%s: error %v, want %q", c.body, err, c.err)
		}
	}
}

var sampleRunsN = flag.Int("sampleruns.n", 1<<12,
	"random run-built sample arrays TestSampleRunsRandom checks (-short: 1/32 of it)")

// TestSampleRunsRandom is the run paths' long differential run against
// encoding/json: arrays of random runs of random values, prefix traps
// and signed zeros among them, each checked as the table arrays are.
// Every array is decoded a second time from text json.Marshal does not
// write: some samples respelled (an exponent, trailing zeros) and some
// separators spaced, so repeats meet texts that only start alike.
// -sampleruns.n sets its size.
func TestSampleRunsRandom(t *testing.T) {
	n := *sampleRunsN
	if testing.Short() {
		n /= 32
	}
	rng := rand.New(rand.NewPCG(23, 7107))
	var scratch sampleRunScratch
	for range n {
		fs := randomRuns(rng)
		checkSampleRun(t, "random", fs, &scratch)
		text := respell(rng, fs)
		for _, body := range []string{`{"pulse":{"i":` + text + `}}`, `{"pulses":[{"i":` + text + `},{"q":` + text + `}]}`} {
			if err := checkSampleRunDecode([]byte(body), &scratch); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// trapValues are values whose text is a prefix of another's, or whose
// bits differ while they compare equal.
var trapValues = []float64{0, minusZero, 1, 10, 1.5, 100000, 1e21, 0.5, 0.55, 0.505, -3, -30, 5e-324, 1e20, 1e-6, 1e-7}

// randomRuns returns up to 24 runs of up to 8 samples: random bit
// patterns, pulse-like values and trap values.
func randomRuns(rng *rand.Rand) []float64 {
	var fs []float64
	for range rng.IntN(25) {
		var f float64
		switch rng.IntN(3) {
		case 0:
			if f = math.Float64frombits(rng.Uint64()); math.IsNaN(f) || math.IsInf(f, 0) {
				f = 1
			}
		case 1:
			f = math.Round(rng.NormFloat64()*1e6) / 1e6
		default:
			f = trapValues[rng.IntN(len(trapValues))]
		}
		for range 1 + rng.IntN(8) {
			fs = append(fs, f)
		}
	}
	return fs
}

// respell writes fs as JSON with some samples in another spelling of
// the same number, and some separators with whitespace around them.
func respell(rng *rand.Rand, fs []float64) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, f := range fs {
		if i > 0 {
			b.WriteString([]string{",", ",", " ,", ", ", "\n,\t"}[rng.IntN(5)])
		}
		s, _ := json.Marshal(f)
		exp := bytes.IndexByte(s, 'e') >= 0
		switch rng.IntN(6) {
		case 0:
			if !exp {
				s = append(s, "e0"...)
			}
		case 1:
			if !exp && bytes.IndexByte(s, '.') >= 0 {
				s = append(s, '0')
			}
		case 2:
			s = bytes.Replace(s, []byte("e"), []byte("E"), 1)
		}
		b.Write(s)
	}
	b.WriteByte(']')
	return b.String()
}

// TestAppendFloatLengthBound pins maxFloatLen against the longest forms
// encoding/json writes and a spread of random bit patterns.
func TestAppendFloatLengthBound(t *testing.T) {
	fs := []float64{
		-0.0000012345678901234567, -1.2345678901234567e-308, -5e-324,
		-999999999999999900000, -1.7976931348623157e308, -123456.78901234567,
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 100000 {
		fs = append(fs, math.Float64frombits(rng.Uint64()))
	}
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		b, err := appendFloat(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		if len(b)+1 > maxFloatLen {
			t.Fatalf("%v encodes as %q: %d bytes with its separator, bound %d", f, b, len(b)+1, maxFloatLen)
		}
		want, _ := json.Marshal(f)
		if !bytes.Equal(b, want) {
			t.Fatalf("%v encodes as %q, json.Marshal writes %q", f, b, want)
		}
	}
}

// TestPulseRequestJSONRejectsNonFinite: JSON has no NaN or infinity, so
// the codec refuses them wherever json.Marshal does.
func TestPulseRequestJSONRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		single := &CompileRequest{Pulse: PulseSpec{Gate: "X", SampleRate: f}}
		if _, err := appendCompileRequest(nil, single); err == nil {
			t.Errorf("codec encoded sample rate %v", f)
		}
		for _, r := range []*BatchRequest{
			{Pulses: []PulseSpec{{Gate: "X", SampleRate: 1, I: []float64{0, f}}}},
			{Pulses: []PulseSpec{{Gate: "X", SampleRate: 1}}, Options: &CompileOptions{MSETarget: f}},
		} {
			if _, err := json.Marshal(r); err == nil {
				t.Fatalf("json.Marshal encoded %v", f)
			}
			if _, err := appendBatchRequest(nil, r); err == nil {
				t.Errorf("codec encoded %v in %+v", f, r)
			}
		}
	}
}

// pulseRequestSeeds are the fuzz target's seed bodies: trimmed real
// library requests, and each edge case of encoding/json's behaviour the
// codec must reproduce.
func pulseRequestSeeds(tb testing.TB) []string {
	var seeds []string
	for _, name := range []string{"ibmq_bogota", "ibmq_guadalupe"} {
		full := libraryRequest(tb, name)
		req := BatchRequest{Image: name, Pulses: full.Pulses[:3]}
		for i := range req.Pulses {
			p := &req.Pulses[i]
			p.I, p.Q = p.I[:8], p.Q[:8]
		}
		b, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, string(b))
		b, err = json.Marshal(CompileRequest{Pulse: req.Pulses[1]})
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, string(b))
	}
	const pulse = `{"gate":"X","qubit":1,"target":-1,"sample_rate":4500000000,"i":[0.5,-0.25],"q":[0,1e-7]}`
	seeds = append(seeds,
		// Options: the tri-state adaptive flag, every field, null.
		`{"pulse":`+pulse+`,"options":{"codec":"dct-w","window":8,"mse_target":0.000005,"adaptive":true}}`,
		`{"pulses":[`+pulse+`],"options":{"threshold":0.01,"fidelity_target":0.999,"adaptive":false}}`,
		`{"pulses":[`+pulse+`],"options":{"adaptive":null}}`,
		`{"pulses":[`+pulse+`],"options":{"codec":"x"},"options":null}`,
		`{"pulses":[`+pulse+`],"options":{"codec":"x"},"options":{"window":4}}`,
		`{"pulse":`+pulse+`,"options":{}}`,
		// include_image, set, unset and null.
		`{"image":"lib","pulses":[`+pulse+`],"include_image":true}`,
		`{"pulses":[`+pulse+`],"include_image":false}`,
		`{"pulses":[`+pulse+`],"include_image":null}`,
		// Nil and empty slices.
		`{"pulses":null}`, `{"pulses":[]}`, `{"pulse":{"i":null,"q":[]}}`,
		`{"pulses":[{"gate":"X","i":[]},null]}`,
		// Float forms either side of the 'e' cutoffs, and extremes.
		`{"pulse":{"sample_rate":1e21,"i":[1e-6,9.99999e-7,-0,0.0,5e-324,1.7976931348623157e308,1E+2,2e-400]}}`,
		// Keys: exact, then case-insensitive; escaped; last one wins.
		`{"PULSE":{"GATE":"X","Gate":"Y","gate":"Z","QUBIT":3}}`,
		`{"pulse":{"gate":"Y","GATE":"X"}}`,
		`{"pulse":{"gate":"X","ſample_rate":2,"Sample_Rate":3}}`,
		`{"Pulses":[{"I":[1],"i":[2],"Q":[3]}],"Include_Image":true}`,
		// Unknown fields are skipped but must be valid JSON.
		`{"extra":{"a":[1,{"b":null,"c":"é"}],"d":-1.5e3},"pulse":{"x":[true,false]}}`,
		`{"extra":[1,],"pulse":{}}`,
		`{"pulse":{"x":tru}}`,
		// Duplicate keys: nested values merge as encoding/json merges.
		`{"pulse":{"gate":"X","i":[1,2,3]},"pulse":{"qubit":2,"i":[4,null]}}`,
		`{"pulses":[{"gate":"A","i":[1,2]},{"gate":"B"}],"pulses":[{"qubit":5}],"pulses":[{},{"i":[null]}]}`,
		// null leaves scalars and structs untouched.
		`{"image":null,"pulse":null,"options":null}`,
		`{"image":"a","image":null,"pulse":{"gate":"X","gate":null,"qubit":1,"qubit":null,"i":[1,null,3]}}`,
		// Ints reject fractions, exponents and overflow; -0 is 0.
		`{"pulse":{"qubit":1.0}}`, `{"pulse":{"qubit":1e2}}`,
		`{"pulse":{"qubit":99999999999999999999}}`, `{"pulse":{"qubit":-0,"target":-9223372036854775808}}`,
		`{"pulse":{"target":9223372036854775808}}`, `{"pulse":{},"options":{"window":1.5}}`,
		// The JSON number grammar, not strconv's.
		`{"pulse":{"i":[NaN]}}`, `{"pulse":{"i":[Infinity]}}`, `{"pulse":{"i":[0x1p3]}}`,
		`{"pulse":{"i":[1_0]}}`, `{"pulse":{"i":[+1]}}`, `{"pulse":{"i":[.5]}}`,
		`{"pulse":{"i":[1.]}}`, `{"pulse":{"i":[01]}}`, `{"pulse":{"i":[-]}}`,
		`{"pulse":{"i":[1e]}}`, `{"pulse":{"i":[1e+]}}`, `{"pulse":{"i":[1e400]}}`,
		// Wrong JSON types.
		`{"pulse":{"gate":1}}`, `{"pulse":{"i":"1"}}`, `{"pulse":{"i":[true]}}`,
		`{"pulse":{"i":[[1]]}}`, `{"pulses":[1]}`, `{"pulses":{}}`, `{"pulse":[]}`,
		`{"include_image":1}`, `{"options":[]}`, `{"options":{"adaptive":1}}`,
		`{"options":5}`, `{"image":true}`,
		// Strings: escapes, surrogates, invalid UTF-8, raw controls, HTML.
		`{"image":"<&>","pulse":{"gate":"Xé\ud800\n\"\\\/"}}`,
		"{\"pulse\":{\"gate\":\"\xff\xfe\"}}", "{\"pulse\":{\"gate\":\"a\tb\"}}",
		`{"pulse":{"gate":"\x"}}`, `{"pulse":{"gate":"\u12"}}`, `{"pulse":{"gate":"abc`,
		// Repeated sample arrays: within a pulse and across pulses; the
		// same numbers spaced differently; repeats holding null; empty
		// arrays; a repeat cut off or followed by garbage.
		`{"pulses":[{"i":[0.5,-0.25,1e-7],"q":[0.5,-0.25,1e-7]},{"i":[0.5,-0.25,1e-7],"q":[1,2]},{"q":[0.5,-0.25,1e-7],"i":[1,2]}]}`,
		`{"pulses":[{"i":[1,2],"q":[1, 2]},{"i":[ 1,2],"q":[1,2 ]},{"i":[1,2.0],"q":[1,2]}]}`,
		`{"pulses":[{"i":[0,1],"q":[-0,1]},{"i":[-0,1],"q":[0,1]}]}`,
		`{"pulses":[{"i":[1,null,3],"q":[1,null,3]},{"i":[1,null,3],"q":[null]},{"i":[null]}]}`,
		`{"pulses":[{"i":[],"q":[]},{"i":[],"q":[1]},{"i":[1],"q":[]}]}`,
		`{"pulses":[{"i":[1,2]},{"i":[1,2`, `{"pulses":[{"i":[1,2]},{"i":[1,2]x}]}`,
		`{"pulses":[{"i":[1,2]},{"i":[1,2]]}]}`, `{"pulses":[{"i":[1,2]},{"i":[1,[2]]}]}`,
		// Runs of one sample: a flat top with signed zeros; texts that
		// are prefixes of the next sample's; repeats followed by bytes
		// that extend a number, by garbage, by nothing, or after null.
		`{"pulses":[{"i":[0,0.018,0.0371,0.0371,0.0371,0.0371,0.0371,0.018,0],"q":[-0,-0,0,0,-0]}]}`,
		`{"pulse":{"i":[1,1,10,10,1,1.5,1.5,100000,1e21,1E+21,0.5,0.55,0.5,-3,-30,-3],"q":[5e-324,5e-324,1e20,1e20]}}`,
		`{"pulse":{"i":[1,1x]}}`, `{"pulses":[{"i":[1,1 1]}]}`, `{"pulse":{"i":[1 , 1 ,1]}}`,
		`{"pulses":[{"i":[0,01]}]}`, `{"pulse":{"i":[1,1e5]}}`, `{"pulses":[{"i":[1,null,1]}]}`,
		`{"pulse":{"i":[1,1`,
		// Repeated keys decode in place over a recorded array.
		`{"pulses":[{"i":[1,2]},{"i":[1,2]}],"pulses":[{"i":[3,4]},{"i":[1,2]}]}`,
		`{"pulses":[{"i":[1,2],"q":[1,2],"i":[3],"q":[1,2]}]}`,
		// Top level: null, other types, trailing bytes, whitespace.
		`null`, ` null `, `[]`, `""`, `1`, ``, ` `, `{}`, "\t{}\r\n",
		`{} x`, `{}{}`, `{"pulse":{}} ,`, `{"pulse":{"i":[1,2]`, `{"pulse"`, `{"pulse":}`,
		`{,}`, `{"a" 1}`, `{"a":1,}`, `nul`, `{"a":[1 2]}`,
	)
	return seeds
}

// TestPulseRequestJSONNestingLimit runs the fuzz target's check on
// bodies at and just past encoding/json's nesting limit of 10000. They
// are not fuzz seeds: minimizing 20 KB inputs stalls the fuzzer.
func TestPulseRequestJSONNestingLimit(t *testing.T) {
	at := []byte(`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`)
	past := []byte(`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`)
	var r BatchRequest
	if err := DecodeBatchRequest(at, &r); err != nil {
		t.Fatalf("depth 10000: %v", err)
	}
	if err := DecodeBatchRequest(past, &r); err == nil {
		t.Fatal("depth 10001 accepted")
	}
	for _, in := range [][]byte{at, past} {
		checkPulseRequestJSON(t, in, in, DecodeCompileRequest, appendCompileRequest, func(*CompileRequest) {})
		checkPulseRequestJSON(t, in, in, DecodeBatchRequest, appendBatchRequest, func(*BatchRequest) {})
	}
}

// FuzzPulseRequestJSON is the codec's differential test against
// encoding/json. Any input must be accepted or rejected by both, and
// decode to the same value when accepted; that value must re-encode to
// json.Marshal's bytes; and a second input decoded into the scratch the
// first one filled must equal a fresh decode of it.
func FuzzPulseRequestJSON(f *testing.F) {
	seeds := pulseRequestSeeds(f)
	for i, s := range seeds {
		f.Add([]byte(s), []byte(seeds[(i+1)%len(seeds)]))
	}
	f.Fuzz(func(t *testing.T, first, second []byte) {
		checkPulseRequestJSON(t, first, second, DecodeCompileRequest, appendCompileRequest, func(r *CompileRequest) {
			normPulse(&r.Pulse)
		})
		checkPulseRequestJSON(t, first, second, DecodeBatchRequest, appendBatchRequest, func(r *BatchRequest) {
			if len(r.Pulses) == 0 {
				r.Pulses = nil
			}
			for i := range r.Pulses {
				normPulse(&r.Pulses[i])
			}
		})
	})
}

// normPulse maps empty sample arrays to nil: a reused scratch may read
// as either.
func normPulse(p *PulseSpec) {
	if len(p.I) == 0 {
		p.I = nil
	}
	if len(p.Q) == 0 {
		p.Q = nil
	}
}

func checkPulseRequestJSON[T any](t *testing.T, first, second []byte,
	decode func([]byte, *T) error, encode func([]byte, *T) ([]byte, error), norm func(*T)) {
	t.Helper()
	var ref, got T
	refErr, err := json.Unmarshal(first, &ref), decode(first, &got)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("%T: json.Unmarshal error %v, codec error %v, input %q", got, refErr, err, first)
	}
	if err == nil {
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%T: codec decoded %+v, json.Unmarshal %+v, input %q", got, got, ref, first)
		}
		want, werr := json.Marshal(&ref)
		enc, err := encode(nil, &got)
		if werr != nil || err != nil {
			t.Fatalf("%T: encoding a decoded value: json.Marshal error %v, codec error %v", got, werr, err)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("%T: codec encoded %q, json.Marshal %q", got, enc, want)
		}
	}

	// got is now scratch holding what first left in it.
	var fresh T
	freshErr, err := decode(second, &fresh), decode(second, &got)
	if (freshErr == nil) != (err == nil) {
		t.Fatalf("%T: fresh decode error %v, reused scratch error %v, input %q", got, freshErr, err, second)
	}
	if err == nil {
		norm(&fresh)
		norm(&got)
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("%T: reused scratch decoded %+v, a zero value %+v, inputs %q then %q", got, got, fresh, first, second)
		}
	}
}

// BenchmarkPulseRequestJSON times the codec against encoding/json on
// two batch requests: a Guadalupe library request (80 pulses, 141,312
// samples, no array repeated), and as the codec-circuit rows a 4-qubit
// QFT scheduled on Guadalupe (39 pulses, 43,808 samples, in
// circuit-mix's band), whose arrays repeat. Encode as
// Client.CompileBatch does, decode into a reused request as the server
// does. ns/float divides the time by the floats the body carries, its
// samples and sample rates.
func BenchmarkPulseRequestJSON(b *testing.B) {
	for _, c := range []struct {
		suffix string
		req    *BatchRequest
	}{
		{"", libraryRequest(b, "ibmq_guadalupe")},
		{"-circuit", circuitRequest(b, "qft", 4)},
	} {
		req := c.req
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		floats := 0
		for _, p := range req.Pulses {
			floats += 1 + len(p.I) + len(p.Q)
		}
		run := func(name string, fn func() error) {
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for b.Loop() {
					if err := fn(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*floats), "ns/float")
			})
		}
		run("encode/codec"+c.suffix, func() error {
			_, err := appendBatchRequest(make([]byte, 0, req.sizeBound()), req)
			return err
		})
		var scratch BatchRequest // warmed, as a pooled server scratch is
		if err := DecodeBatchRequest(body, &scratch); err != nil {
			b.Fatal(err)
		}
		run("decode/codec"+c.suffix, func() error { return DecodeBatchRequest(body, &scratch) })
		if c.suffix != "" {
			continue
		}
		run("encode/encoding-json", func() error {
			_, err := json.Marshal(req)
			return err
		})
		run("decode/encoding-json", func() error {
			var r BatchRequest
			return json.Unmarshal(body, &r)
		})
	}
}
