package reedsolomon

import (
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/poly"
)

func TestDecodeBWNoErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f, xs, ys := randomCodeword(rng, 20, 5)
	res, err := DecodeBW(xs, ys, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Poly.Equal(f) {
		t.Fatalf("decoded %v, want %v", res.Poly, f)
	}
	if len(res.ErrorPositions) != 0 {
		t.Errorf("spurious error positions %v", res.ErrorPositions)
	}
}

func TestDecodeBWCorrectsUpToBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(30)
		k := 1 + rng.Intn(n/2)
		e := rng.Intn(MaxErrors(n, k) + 1)
		f, xs, ys := randomCodeword(rng, n, k)
		wantPos := corrupt(rng, ys, e)
		res, err := DecodeBW(xs, ys, k)
		if err != nil {
			t.Fatalf("trial %d (n=%d k=%d e=%d): %v", trial, n, k, e, err)
		}
		if !res.Poly.Equal(f) {
			t.Fatalf("trial %d: wrong polynomial", trial)
		}
		want := map[int]bool{}
		for _, p := range wantPos {
			want[p] = true
		}
		if len(res.ErrorPositions) != e {
			t.Fatalf("trial %d: located %d errors, want %d", trial, len(res.ErrorPositions), e)
		}
		for _, p := range res.ErrorPositions {
			if !want[p] {
				t.Fatalf("trial %d: false position %d", trial, p)
			}
		}
	}
}

func TestDecodeBWAgreesWithGao(t *testing.T) {
	// The two decoders are independent implementations of the same
	// mathematics; they must agree on every decodable word and both
	// refuse the same undecodable ones.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(40)
		k := 1 + rng.Intn(n/2)
		e := rng.Intn(MaxErrors(n, k) + 2) // occasionally beyond budget
		_, xs, ys := randomCodeword(rng, n, k)
		corrupt(rng, ys, min(e, n))
		gao, gaoErr := Decode(xs, ys, k)
		bw, bwErr := DecodeBW(xs, ys, k)
		if (gaoErr == nil) != (bwErr == nil) {
			t.Fatalf("trial %d: gao err=%v, bw err=%v", trial, gaoErr, bwErr)
		}
		if gaoErr != nil {
			continue
		}
		if !gao.Poly.Equal(bw.Poly) {
			t.Fatalf("trial %d: decoders disagree", trial)
		}
	}
}

func TestDecodeBWPaperScale(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	n, k := 100, 46
	f, xs, ys := randomCodeword(rng, n, k)
	corrupt(rng, ys, 27)
	res, err := DecodeBW(xs, ys, k)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Poly.Equal(f) {
		t.Fatal("failed to correct 27 errors at paper scale")
	}
}

func TestDecodeBWBeyondBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	n, k := 16, 8
	f, xs, ys := randomCodeword(rng, n, k)
	corrupt(rng, ys, MaxErrors(n, k)+2)
	res, err := DecodeBW(xs, ys, k)
	if err == nil && res.Poly.Equal(f) && len(res.ErrorPositions) > MaxErrors(n, k) {
		t.Fatal("silent mis-decode")
	}
}

func TestDecodeBWValidation(t *testing.T) {
	xs := []field.Element{field.New(1), field.New(2)}
	if _, err := DecodeBW(xs, xs[:1], 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := DecodeBW(xs, xs, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := DecodeBW(xs, xs, 3); err == nil {
		t.Error("n<k accepted")
	}
	dup := []field.Element{field.New(1), field.New(1)}
	if _, err := DecodeBW(dup, dup, 1); err == nil {
		t.Error("duplicate points accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkDecodeBWvsGao(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	_, xs, ys := randomCodeword(rng, 100, 46)
	corrupt(rng, ys, 27)
	b.Run("gao", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Decode(xs, ys, 46); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("berlekamp-welch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBW(xs, ys, 46); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestDecoderReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	_, xs, _ := randomCodeword(rng, 40, 10)
	dec, err := NewDecoder(xs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if dec.MaxErrors() != 15 {
		t.Errorf("MaxErrors = %d", dec.MaxErrors())
	}
	for trial := 0; trial < 20; trial++ {
		f, _, ys := randomCodewordAt(rng, xs, 10)
		e := rng.Intn(dec.MaxErrors() + 1)
		corrupt(rng, ys, e)
		got, err := dec.Decode(ys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Poly.Equal(f) {
			t.Fatalf("trial %d: wrong polynomial", trial)
		}
		if len(got.ErrorPositions) != e {
			t.Fatalf("trial %d: %d errors, want %d", trial, len(got.ErrorPositions), e)
		}
	}
}

// randomCodewordAt evaluates a fresh random message at fixed points.
func randomCodewordAt(rng *rand.Rand, xs []field.Element, k int) (poly.Poly, []field.Element, []field.Element) {
	coeffs := make([]field.Element, k)
	for i := range coeffs {
		coeffs[i] = field.Rand(rng)
	}
	f := poly.New(coeffs...)
	return f, xs, f.EvalMany(xs)
}

func TestNewDecoderValidation(t *testing.T) {
	xs := []field.Element{field.New(1), field.New(2)}
	if _, err := NewDecoder(xs, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewDecoder(xs, 3); err == nil {
		t.Error("n<k accepted")
	}
	dup := []field.Element{field.New(1), field.New(1)}
	if _, err := NewDecoder(dup, 1); err == nil {
		t.Error("duplicate points accepted")
	}
	d, err := NewDecoder(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decode(xs[:1]); err == nil {
		t.Error("short word accepted")
	}
}
