package rle

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSampleRoundTrip(t *testing.T) {
	for _, s := range []int16{0, 1, -1, 32767, -32767, -32768, 12345, -28000} {
		w := Sample(s)
		if IsCodeword(w) {
			t.Errorf("Sample(%d) classified as codeword", s)
		}
		if got := SampleValue(w); got != s {
			t.Errorf("SampleValue(Sample(%d)) = %d", s, got)
		}
	}
}

func TestCodewordsNeverCollideWithSamples(t *testing.T) {
	// Every possible 16-bit sample payload must decode as a sample;
	// the tag bit alone separates the spaces.
	f := func(s int16) bool {
		k, _ := Decode(Sample(s))
		return k == KindSample
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroRunDecode(t *testing.T) {
	for _, run := range []int{1, 2, 16, 32, MaxRun} {
		k, r := Decode(ZeroRun(run))
		if k != KindZeroRun || r != run {
			t.Errorf("Decode(ZeroRun(%d)) = %v, %d", run, k, r)
		}
	}
}

func TestRepeatDecode(t *testing.T) {
	for _, run := range []int{1, 100, MaxRun} {
		k, r := Decode(Repeat(run))
		if k != KindRepeat || r != run {
			t.Errorf("Decode(Repeat(%d)) = %v, %d", run, k, r)
		}
	}
}

func TestRunRangePanics(t *testing.T) {
	for _, bad := range []int{0, -1, MaxRun + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ZeroRun(%d) should panic", bad)
				}
			}()
			ZeroRun(bad)
		}()
	}
}

func TestEncodeWindowTailOnly(t *testing.T) {
	win := []int16{100, -5, 3, 0, 0, 0, 0, 0}
	enc := EncodeWindow(win)
	if len(enc) != 4 {
		t.Fatalf("encoded length %d, want 4 (3 samples + codeword)", len(enc))
	}
	k, run := Decode(enc[3])
	if k != KindZeroRun || run != 5 {
		t.Errorf("tail codeword = %v run %d, want zero-run 5", k, run)
	}
}

func TestEncodeWindowInteriorZerosStayLiteral(t *testing.T) {
	win := []int16{100, 0, 0, 7, 0, 0, 0, 0}
	enc := EncodeWindow(win)
	// 4 literals (including the two interior zeros) + 1 codeword.
	if len(enc) != 5 {
		t.Fatalf("encoded length %d, want 5", len(enc))
	}
	dec, err := DecodeWindow(enc, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range win {
		if dec[i] != win[i] {
			t.Fatalf("sample %d: %d != %d", i, dec[i], win[i])
		}
	}
}

func TestEncodeWindowAllZero(t *testing.T) {
	win := make([]int16, 16)
	enc := EncodeWindow(win)
	if len(enc) != 1 {
		t.Fatalf("all-zero window encodes to %d words, want 1", len(enc))
	}
	dec, err := DecodeWindow(enc, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range dec {
		if v != 0 {
			t.Fatal("nonzero in decoded all-zero window")
		}
	}
}

func TestEncodeWindowNoTail(t *testing.T) {
	win := []int16{1, 2, 3, 4}
	enc := EncodeWindow(win)
	if len(enc) != 4 {
		t.Fatalf("no-tail window encodes to %d words, want 4", len(enc))
	}
}

func TestDecodeWindowErrors(t *testing.T) {
	if _, err := DecodeWindow([]Word{Sample(1)}, 8); err == nil {
		t.Error("short window should error")
	}
	if _, err := DecodeWindow([]Word{Repeat(8)}, 8); err == nil {
		t.Error("repeat codeword in DCT window should error")
	}
	if _, err := DecodeWindow([]Word{Sample(1), ZeroRun(8)}, 8); err == nil {
		t.Error("overlong window should error")
	}
	if _, err := DecodeWindow([]Word{Sample(1), ZeroRun(7), Sample(2)}, 8); err == nil {
		t.Error("a word after the window should error")
	}
}

// TestReadWindowCounts pins what ReadWindow reads and how many words it
// says a window took, well formed or not: a zero run past the window
// counts as used, a repeat codeword does not, and running out of words
// uses them all. Words after a complete window are left for the next.
func TestReadWindowCounts(t *testing.T) {
	cases := []struct {
		name  string
		words []Word
		used  int
		ok    bool
	}{
		{"literals then zero run", []Word{Sample(7), Sample(-3), ZeroRun(2), Sample(9)}, 3, true},
		{"literals only", []Word{Sample(1), Sample(2), Sample(3), Sample(4), Sample(5)}, 4, true},
		{"all zero", []Word{ZeroRun(4), ZeroRun(4)}, 1, true},
		{"zero run past the window", []Word{Sample(7), ZeroRun(4), Sample(9)}, 2, false},
		{"repeat inside", []Word{Sample(7), Repeat(3), Sample(9)}, 1, false},
		{"truncated", []Word{Sample(7), Sample(-3)}, 2, false},
		{"empty", nil, 0, false},
	}
	for _, tc := range cases {
		used, err := ReadWindow(make([]int32, 4), tc.words)
		if used != tc.used || (err == nil) != tc.ok {
			t.Errorf("%s: used %d, err %v; want used %d, ok=%t", tc.name, used, err, tc.used, tc.ok)
		}
	}
	dst := []int16{-1, -1, -1, -1} // stale values the zero run must not leave
	if _, err := ReadWindow(dst, []Word{Sample(7), Sample(-3), ZeroRun(2)}); err != nil {
		t.Fatal(err)
	}
	if want := []int16{7, -3, 0, 0}; !reflect.DeepEqual(dst, want) {
		t.Errorf("window reads %v, want %v", dst, want)
	}
}

func TestEncodeDecodeRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		ws := []int{8, 16, 32}[trial%3]
		win := make([]int16, ws)
		// Sparse windows like real thresholded DCT output.
		nz := rng.Intn(4)
		for i := 0; i < nz; i++ {
			win[rng.Intn(ws)] = int16(rng.Intn(65535) - 32767)
		}
		dec, err := DecodeWindow(EncodeWindow(win), ws)
		if err != nil {
			t.Fatal(err)
		}
		for i := range win {
			if dec[i] != win[i] {
				t.Fatalf("trial %d sample %d: %d != %d", trial, i, dec[i], win[i])
			}
		}
	}
}

func TestEncodeRepeatRunSplitsLongRuns(t *testing.T) {
	words := EncodeRepeatRun(2*MaxRun + 5)
	if len(words) != 3 {
		t.Fatalf("got %d words, want 3", len(words))
	}
	total := 0
	for _, w := range words {
		k, r := Decode(w)
		if k != KindRepeat {
			t.Fatal("expected repeat codeword")
		}
		total += r
	}
	if total != 2*MaxRun+5 {
		t.Errorf("total run %d, want %d", total, 2*MaxRun+5)
	}
}

func TestCompressionAccounting(t *testing.T) {
	// A typical DRAG window keeps 2 coefficients + 1 codeword out of 16
	// samples: the 16/3 = 5.33x ratio of Table V/VII.
	win := make([]int16, 16)
	win[0], win[1] = 20000, -3000
	enc := EncodeWindow(win)
	if len(enc) != 3 {
		t.Fatalf("window compressed to %d words, want 3", len(enc))
	}
	if r := float64(16) / float64(len(enc)); r < 5.3 || r > 5.4 {
		t.Errorf("ratio %.2f, want 5.33", r)
	}
}

func TestAppendWindowMatchesEncodeWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		ws := []int{4, 8, 16, 32}[trial%4]
		win := make([]int16, ws)
		for i := range win {
			if rng.Intn(3) == 0 {
				win[i] = int16(rng.Intn(65535) - 32767)
			}
		}
		want := EncodeWindow(win)
		prefix := []Word{Sample(99), ZeroRun(2)}
		got := AppendWindow(append([]Word(nil), prefix...), win)
		if len(got) != len(prefix)+len(want) {
			t.Fatalf("AppendWindow length %d, want %d", len(got), len(prefix)+len(want))
		}
		for i, w := range want {
			if got[len(prefix)+i] != w {
				t.Fatalf("AppendWindow[%d] = %v, want %v", i, got[len(prefix)+i], w)
			}
		}
	}
}

func TestAppendRunMatchesPerSampleAppend(t *testing.T) {
	for _, run := range []int{0, 1, 2, 3, 7, 16, 100, 4097} {
		for _, pre := range []int{0, 5} {
			base := make([]int16, pre)
			for i := range base {
				base[i] = int16(i)
			}
			got := AppendRun(append([]int16(nil), base...), 42, run)
			want := append([]int16(nil), base...)
			for i := 0; i < run; i++ {
				want = append(want, 42)
			}
			if len(got) != len(want) {
				t.Fatalf("run=%d pre=%d: len %d, want %d", run, pre, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("run=%d pre=%d: AppendRun[%d] = %d, want %d", run, pre, i, got[i], want[i])
				}
			}
		}
	}
}

func TestAppendRepeatRunMatchesEncodeRepeatRun(t *testing.T) {
	for _, n := range []int{1, MaxRun, MaxRun + 1, 3*MaxRun + 17} {
		want := EncodeRepeatRun(n)
		got := AppendRepeatRun([]Word{Repeat(1)}, n)
		if len(got) != 1+len(want) {
			t.Fatalf("n=%d: AppendRepeatRun length %d, want %d", n, len(got), 1+len(want))
		}
		for i, w := range want {
			if got[1+i] != w {
				t.Fatalf("n=%d: AppendRepeatRun[%d] = %v, want %v", n, i, got[1+i], w)
			}
		}
	}
}
