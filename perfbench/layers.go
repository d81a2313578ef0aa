package main

import (
	"fmt"
	"reflect"
	"time"
)

// tracedRounds is the session length of the traced run; per-layer values
// are per-round means, so they do not need the timed runs' long sessions.
const tracedRounds = 20

// measureLayers is the traced run. Each iteration runs the workload's
// shape four times:
//
//   - in process at Workers=1, bare, as the reference;
//   - in process at Workers=1 through tracedScheme, which gives the nn,
//     core and fl layers and must reach the same final parameters;
//   - as a bare pipe session (lcofl dist over transport.Pipe), as the
//     reference;
//   - as a pipe session with every pipe end tapped, which gives the node,
//     transport and protocol layers and must return the same Report.
//
// It repeats until the deadline; every bare session must end with the same
// final parameters, and a lock-step session (DisablePipeline) closes the
// run and must end with them too.
// trace_overhead_pct compares the traced and reference in-process round
// p50.
func measureLayers(w workload, seed int64, deadline time.Time) (*measurement, error) {
	m := &measurement{}
	acc := &layerTimes{}
	var newScheme, plainMs, tracedMs []float64
	var handshakes []float64
	sl := &sessionLayers{}
	var ref *sessionResult
	for iter := 0; iter == 0 || time.Now().Before(deadline); iter++ {
		plain, err := newInproc(w.Shape, seed, 1)
		if err != nil {
			return nil, err
		}
		for r := 0; r < tracedRounds; r++ {
			start := time.Now()
			ok, err := plain.round(plain.coded)
			plainMs = append(plainMs, ms(time.Since(start)))
			m.count(ok)
			if err != nil {
				return nil, err
			}
		}
		traced, err := newInproc(w.Shape, seed, 1)
		if err != nil {
			return nil, err
		}
		newScheme = append(newScheme, ms(traced.newScheme))
		ts := newTracedScheme(traced.coded, traced.refX, acc)
		for r := 0; r < tracedRounds; r++ {
			ok, wall, err := ts.runRound(traced)
			tracedMs = append(tracedMs, ms(wall))
			m.count(ok)
			if err != nil {
				return nil, err
			}
		}
		if paramsHash(plain.sys.Shared().Params()) != paramsHash(traced.sys.Shared().Params()) {
			m.fail("traced and untraced Workers=1 runs ended with different final params")
		}

		prev := ref
		ref, err = runSession(w.Shape, seed, w.Workers, tracedRounds, sessionOpts{})
		if err != nil {
			return nil, err
		}
		m.checkSession(ref, tracedRounds)
		if prev != nil && !reflect.DeepEqual(prev.report.FinalParams, ref.report.FinalParams) {
			m.fail("repeated sessions of the seed ended with different final params")
		}
		tapped, err := runSession(w.Shape, seed, w.Workers, tracedRounds, sessionOpts{tap: true})
		if err != nil {
			return nil, err
		}
		m.checkSession(tapped, tracedRounds)
		if !reflect.DeepEqual(ref.report, tapped.report) {
			m.fail("tapped session Report differs from the untapped one")
		}
		l, err := tapped.layers(tracedRounds)
		if err != nil {
			return nil, err
		}
		sl.add(l)
		handshakes = append(handshakes, ms(l.handshake))
	}
	lock, err := runSession(w.Shape, seed, w.Workers, tracedRounds, sessionOpts{lockstep: true})
	if err != nil {
		return nil, err
	}
	m.checkSession(lock, tracedRounds)
	if !reflect.DeepEqual(ref.report.FinalParams, lock.report.FinalParams) {
		m.fail("pipelined and lock-step sessions ended with different final params")
	}
	if acc.replayMismatches != 0 {
		m.fail("%d estimate replays differ from the uploaded learning channel", acc.replayMismatches)
	}

	m.values = layerValues(acc, sl)
	m.values["core.new_scheme_ms"] = quantile(newScheme, 0.5)
	m.values["node.handshake_ms"] = quantile(handshakes, 0.5)
	m.values["trace_overhead_pct"] = overheadPct(tracedMs, plainMs)
	m.notes = append(m.notes, fmt.Sprintf("%d traced in-process rounds, %d traced session rounds",
		acc.rounds, sl.rounds))
	return m, nil
}

// overheadPct is the traced p50 over the reference p50, in percent above
// it.
func overheadPct(traced, plain []float64) float64 {
	return 100 * (quantile(traced, 0.5)/quantile(plain, 0.5) - 1)
}

// add merges another traced session's figures.
func (s *sessionLayers) add(o *sessionLayers) {
	s.rounds += o.rounds
	s.round += o.round
	s.collect += o.collect
	s.fusion += o.fusion
	s.transit += o.transit
	s.send += o.send
	s.uploads += o.uploads
	s.compute = append(s.compute, o.compute...)
	s.computeMax += o.computeMax
	s.msgs += o.msgs
	s.upBytes += o.upBytes
	s.downBytes += o.downBytes
}

// layerValues turns the accumulated traces into per-round means. The
// in-process self times add up to fl.round_ms exactly; fl.other_ms is the
// remainder (fl.System's round prologue before BeginRound).
func layerValues(a *layerTimes, s *sessionLayers) map[string]float64 {
	n := float64(a.rounds)
	per := func(d time.Duration) float64 { return ms(d) / n }
	hit := 0.0
	if a.recovered+a.fallbacks > 0 {
		hit = float64(a.recovered) / float64(a.recovered+a.fallbacks)
	}
	self := a.begin + a.train + a.upload + a.channel + a.aggregate + a.distl
	sn := float64(s.rounds)
	kib := func(b int) float64 { return float64(b) / 1024 / sn }
	return map[string]float64{
		"nn.train_ms":                 per(a.train),
		"nn.train_allocs":             float64(a.trainAllocs) / n,
		"nn.estimate_ms":              per(a.estimate),
		"core.upload_ms":              per(a.upload),
		"core.upload_allocs":          float64(a.uploadAllocs) / n,
		"core.verify_eval_ms":         per(a.upload - a.estimate),
		"core.begin_round_ms":         per(a.begin),
		"core.aggregate_ms":           per(a.aggregate),
		"core.aggregate_allocs":       float64(a.aggAllocs) / n,
		"core.batch_recovered":        float64(a.recovered) / n,
		"core.batch_fallbacks":        float64(a.fallbacks) / n,
		"core.batch_hit_ratio":        hit,
		"core.decode_failures":        float64(a.decodeFails) / n,
		"core.flagged":                float64(a.flagged) / n,
		"fl.channel_ms":               per(a.channel),
		"fl.distill_ms":               per(a.distl),
		"fl.round_ms":                 per(a.round),
		"fl.other_ms":                 per(a.round - self),
		"node.round_ms":               ms(s.round) / sn,
		"node.collect_ms":             ms(s.collect) / sn,
		"node.fusion_ms":              ms(s.fusion) / sn,
		"node.vehicle_compute_ms_p50": quantile(s.compute, 0.5),
		"node.vehicle_compute_ms_max": s.computeMax / sn,
		"node.upload_transit_ms":      ms(s.transit) / float64(s.uploads),
		"transport.send_ms":           ms(s.send) / sn,
		"transport.msgs":              float64(s.msgs) / sn,
		"protocol.up_kib":             kib(s.upBytes),
		"protocol.down_kib":           kib(s.downBytes),
		"wire_kib_per_round":          kib(s.upBytes + s.downBytes),
	}
}
