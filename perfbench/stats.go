package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the p-quantile (p in [0, 1]) of xs by linear
// interpolation between the two closest ranks, the same rule as Python's
// statistics.quantiles(method="inclusive"). xs is not modified; an empty
// slice gives NaN.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapCounter reads the cumulative heap-allocation counters of
// runtime/metrics. Its sample slice is allocated once, so a read between
// two layer calls allocates nothing itself. The runtime credits small
// objects per cached span, so a single read may be off by up to one span
// per size class; over a round loop of thousands of objects that is
// noise, for one layer call it bounds the attribution error.
type heapCounter struct{ s []metrics.Sample }

func newHeapCounter() *heapCounter {
	return &heapCounter{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

// read returns the objects and bytes allocated on the heap so far.
func (h *heapCounter) read() (objects, bytes uint64) {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64(), h.s[1].Value.Uint64()
}

// liveHeapBytes forces collections and returns the live heap left. The
// second cycle also drops what sync.Pool victim caches still held.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
