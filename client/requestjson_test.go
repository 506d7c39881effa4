package client

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

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
		req := libraryRequest(t, name)
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
		// The scratch still holds the previous machine's library.
		if err := DecodeBatchRequest(want, &scratch); err != nil {
			t.Fatalf("%s: decode into reused scratch: %v", name, err)
		}
		if !reflect.DeepEqual(scratch, ref) {
			t.Fatalf("%s: reused scratch decodes differently from a zero value", name)
		}
	}
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

// BenchmarkPulseRequestJSON times the codec on a Guadalupe library
// request (80 pulses, 141,312 samples) against encoding/json: encode as
// Client.CompileBatch does, decode into a reused request as the server
// does. ns/float divides the time by the floats the body carries, its
// samples and sample rates.
func BenchmarkPulseRequestJSON(b *testing.B) {
	req := libraryRequest(b, "ibmq_guadalupe")
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
	run("encode/codec", func() error {
		_, err := appendBatchRequest(make([]byte, 0, req.sizeBound()), req)
		return err
	})
	run("encode/encoding-json", func() error {
		_, err := json.Marshal(req)
		return err
	})
	var scratch BatchRequest // warmed, as a pooled server scratch is
	if err := DecodeBatchRequest(body, &scratch); err != nil {
		b.Fatal(err)
	}
	run("decode/codec", func() error { return DecodeBatchRequest(body, &scratch) })
	run("decode/encoding-json", func() error {
		var r BatchRequest
		return json.Unmarshal(body, &r)
	})
}
