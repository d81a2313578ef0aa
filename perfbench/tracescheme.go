package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/nn"
)

// layerTimes accumulates per-layer self times and allocation counts over
// the traced in-process rounds.
type layerTimes struct {
	rounds                               int
	round, begin, train, upload          time.Duration
	estimate, channel, aggregate, distl  time.Duration
	trainAllocs, uploadAllocs, aggAllocs uint64
	recovered, fallbacks, decodeFails    int
	flagged                              int
	replayMismatches                     int
}

// tracedScheme is a pass-through fl.Scheme around core.Scheme that times
// each call from outside. It implements only the four fl.Scheme methods,
// so it hides core.Scheme's SetSpanParent (used only with obs tracing on)
// and the StreamingAggregator face (which fl.System never uses).
//
// It relies on the round running at Workers=1: every call then happens on
// one goroutine in a fixed order, so the gap between the end of one call
// and the start of the next is exactly the fl.System code between them —
// local training before each Upload, the adversary and channel pass
// before Aggregate, and distillation after it.
type tracedScheme struct {
	inner *core.Scheme
	refX  [][]float64
	slots int
	heap  *heapCounter
	acc   *layerTimes

	roundStart time.Time
	mark       time.Time     // end of the previous traced call
	markAllocs uint64        // heap objects allocated at mark
	replay     time.Duration // estimate replays this round, excluded from it
}

func newTracedScheme(inner *core.Scheme, refX [][]float64, acc *layerTimes) *tracedScheme {
	return &tracedScheme{inner: inner, refX: refX, slots: inner.Slots(), heap: newHeapCounter(), acc: acc}
}

// runRound drives one traced round of ip, closes its accounts and
// returns the round's traced wall time (estimate replays excluded).
func (t *tracedScheme) runRound(ip *inproc) (bool, time.Duration, error) {
	t.replay = 0
	t.roundStart = time.Now()
	ok, err := ip.round(t)
	end := time.Now()
	if err != nil {
		return false, 0, err
	}
	a := t.acc
	wall := end.Sub(t.roundStart) - t.replay
	a.rounds++
	a.distl += end.Sub(t.mark)
	a.round += wall
	a.recovered += t.inner.BatchRecovered
	a.fallbacks += t.inner.BatchFallbacks
	a.decodeFails += t.inner.DecodeFailures
	a.flagged += len(t.inner.SuspectedMalicious())
	return ok, wall, nil
}

// Name implements fl.Scheme.
func (t *tracedScheme) Name() string { return t.inner.Name() }

// BeginRound implements fl.Scheme.
func (t *tracedScheme) BeginRound(shared *nn.Network) error {
	start := time.Now()
	err := t.inner.BeginRound(shared)
	t.mark = time.Now()
	t.acc.begin += t.mark.Sub(start)
	t.markAllocs, _ = t.heap.read()
	return err
}

// Upload implements fl.Scheme. After the timed call it replays the
// learning channel — EstimateClamped over the reference features on the
// same model — to time nn estimation on its own, and checks the replay
// equals upload[2S:] bit for bit. The replay is excluded from the round.
func (t *tracedScheme) Upload(vehicleID int, model *nn.Network) ([]float64, error) {
	start := time.Now()
	startAllocs, _ := t.heap.read()
	t.acc.train += start.Sub(t.mark)
	t.acc.trainAllocs += startAllocs - t.markAllocs

	up, err := t.inner.Upload(vehicleID, model)
	end := time.Now()
	endAllocs, _ := t.heap.read()
	t.acc.upload += end.Sub(start)
	t.acc.uploadAllocs += endAllocs - startAllocs
	if err != nil {
		return nil, err
	}

	learning := up[2*t.slots:]
	for j, x := range t.refX {
		pi, err := model.EstimateClamped(x)
		if err != nil {
			return nil, fmt.Errorf("estimate replay: %w", err)
		}
		if math.Float64bits(pi) != math.Float64bits(learning[j]) {
			t.acc.replayMismatches++
		}
	}
	t.mark = time.Now()
	t.acc.estimate += t.mark.Sub(end)
	t.replay += t.mark.Sub(end)
	t.markAllocs, _ = t.heap.read()
	return up, nil
}

// Aggregate implements fl.Scheme.
func (t *tracedScheme) Aggregate(uploads [][]float64) ([]float64, error) {
	start := time.Now()
	startAllocs, _ := t.heap.read()
	t.acc.channel += start.Sub(t.mark)
	targets, err := t.inner.Aggregate(uploads)
	t.mark = time.Now()
	endAllocs, _ := t.heap.read()
	t.acc.aggregate += t.mark.Sub(start)
	t.acc.aggAllocs += endAllocs - startAllocs
	return targets, err
}

var _ fl.Scheme = (*tracedScheme)(nil)
