package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
	if got := quantile([]float64{7, 3}, 0.5); got != 5 {
		t.Errorf("even-length median = %g, want 5", got)
	}
	if got := quantile([]float64{42}, 0.9); got != 42 {
		t.Errorf("single-sample quantile = %g, want 42", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %g, want NaN", got)
	}
}

func TestBitMismatches(t *testing.T) {
	a := []float64{1, math.Copysign(0, -1), 3}
	if n := bitMismatches(a, []float64{1, 0, 3}); n != 1 {
		t.Errorf("-0 vs 0: %d mismatches, want 1", n)
	}
	if n := bitMismatches(a, a[:2]); n != 3 {
		t.Errorf("length mismatch counted %d, want 3", n)
	}
}

func TestHeapCounterCountsAllocations(t *testing.T) {
	h := newHeapCounter()
	o0, b0 := h.read()
	keep := make([][]byte, 10000)
	for i := range keep {
		keep[i] = make([]byte, 1024)
	}
	o1, b1 := h.read()
	// The runtime credits small objects per cached span, so a read may be
	// off by up to one span per size class.
	if o1-o0 < 9000 || b1-b0 < 9000*1024 {
		t.Errorf("10000 1-KiB allocations read as %d objects, %d bytes", o1-o0, b1-b0)
	}
	_ = keep
}
