package main

import (
	"reflect"
	"testing"
	"time"
)

// tiny is a small shape with liars (K=4, E=4, 3 liars) that runs in
// milliseconds.
var tiny = shape{Vehicles: 12, Rows: 600, RefRows: 32, Batches: 4, Degree: 1, LocalEpochs: 1, Malicious: 0.25}

func TestTracedSchemeIsTransparentAndAccountsForTheRound(t *testing.T) {
	const rounds = 3
	plain, err := newInproc(tiny, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := newInproc(tiny, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc := &layerTimes{}
	ts := newTracedScheme(traced.coded, traced.refX, acc)
	var wall time.Duration
	for r := 0; r < rounds; r++ {
		ok, err := plain.round(plain.coded)
		if err != nil || !ok {
			t.Fatalf("untraced round %d: ok=%v err=%v", r+1, ok, err)
		}
		ok, d, err := ts.runRound(traced)
		if err != nil || !ok {
			t.Fatalf("traced round %d: ok=%v err=%v", r+1, ok, err)
		}
		wall += d
	}
	if !reflect.DeepEqual(plain.sys.Shared().Params(), traced.sys.Shared().Params()) {
		t.Error("traced run ended with different final params")
	}
	if acc.replayMismatches != 0 {
		t.Errorf("%d estimate replays differ from the upload", acc.replayMismatches)
	}
	if acc.rounds != rounds || acc.round != wall {
		t.Errorf("accounted %d rounds / %v, ran %d / %v", acc.rounds, acc.round, rounds, wall)
	}
	if acc.flagged != rounds*len(traced.liars) || acc.decodeFails != 0 {
		t.Errorf("flagged %d, decode failures %d over %d rounds with %d liars",
			acc.flagged, acc.decodeFails, rounds, len(traced.liars))
	}
	v := layerValues(acc, &sessionLayers{rounds: 1, uploads: 1})
	self := v["core.begin_round_ms"] + v["nn.train_ms"] + v["core.upload_ms"] + v["fl.channel_ms"] +
		v["core.aggregate_ms"] + v["fl.distill_ms"]
	if other := v["fl.other_ms"]; other < 0 || other > v["fl.round_ms"] || abs(self+other-v["fl.round_ms"]) > 1e-9 {
		t.Errorf("layers %g + other %g do not account for round %g", self, other, v["fl.round_ms"])
	}
}

func TestTappedSessionIsTransparentAndAccountsForTheRound(t *testing.T) {
	const rounds = 4
	bare, err := runSession(tiny, 3, 0, rounds, sessionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tapped, err := runSession(tiny, 3, 0, rounds, sessionOpts{tap: true})
	if err != nil {
		t.Fatal(err)
	}
	lock, err := runSession(tiny, 3, 0, rounds, sessionOpts{lockstep: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*sessionResult{"bare": bare, "tapped": tapped, "lockstep": lock} {
		if !res.healthy(rounds) {
			t.Errorf("%s session unhealthy: %+v", name, *res.report)
		}
	}
	if !reflect.DeepEqual(bare.report, tapped.report) {
		t.Errorf("tapped session changed the Report:\nbare   %+v\ntapped %+v", *bare.report, *tapped.report)
	}
	if !reflect.DeepEqual(bare.report.FinalParams, lock.report.FinalParams) {
		t.Error("lock-step session ended with different final params")
	}

	l, err := tapped.layers(rounds)
	if err != nil {
		t.Fatal(err)
	}
	if l.rounds != rounds-1 {
		t.Fatalf("attributed %d rounds, want %d", l.rounds, rounds-1)
	}
	if l.collect+l.fusion != l.round || l.collect <= 0 || l.fusion <= 0 {
		t.Errorf("collect %v + fusion %v != round %v", l.collect, l.fusion, l.round)
	}
	if want := 2 * tiny.Vehicles * (rounds - 1); l.msgs != want || l.uploads != tiny.Vehicles*(rounds-1) {
		t.Errorf("%d messages, %d uploads; want %d messages", l.msgs, l.uploads, want)
	}
	if l.upBytes <= l.downBytes || l.downBytes <= 0 {
		t.Errorf("up %d bytes, down %d bytes", l.upBytes, l.downBytes)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
