package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/node"
	"repro/internal/traffic"
	"repro/internal/transport"
)

// sessionOpts selects the engine mode and how a session's pipes are
// observed.
type sessionOpts struct {
	lockstep bool // node.ServerConfig.DisablePipeline
	tap      bool // tap every pipe on both ends
}

// sessionResult is one completed distributed session.
type sessionResult struct {
	srv      *node.Server // keeps the engine referenced for heap_live_mib
	report   *node.Report
	liars    []int
	start    time.Time  // before data generation
	runStart time.Time  // just before node.Server.Run
	server   []*tapConn // fusion-side taps, by vehicle ID
	vehicle  []*tapConn // vehicle-side taps, by vehicle ID
}

// runSession runs the shape as `lcofl dist` runs it: a node.Server and
// one node.RunVehicle goroutine per vehicle over transport.Pipe, with
// the seed offsets of the dist subcommand. It returns after every
// vehicle goroutine has exited.
func runSession(sh shape, seed int64, workers, rounds int, o sessionOpts) (*sessionResult, error) {
	res := &sessionResult{start: time.Now()}
	parts, refX, _, err := splitData(sh, seed)
	if err != nil {
		return nil, err
	}
	coeffs, err := polyActivation(sh.Degree)
	if err != nil {
		return nil, err
	}
	srv, err := node.NewServer(node.ServerConfig{
		FL: fl.Config{
			InputSize: traffic.NumFeatures, LocalEpochs: sh.LocalEpochs, LocalRate: localRate(sh.Degree),
			DistillEpochs: 30, DistillRate: 0.2, ServerStep: 0.5, Seed: seed + 4,
		},
		Scheme: core.SchemeConfig{
			NumVehicles: sh.Vehicles, NumBatches: sh.Batches, Degree: sh.Degree, Seed: seed + 5, Workers: workers,
		},
		RefX:             refX,
		ActivationCoeffs: coeffs,
		Rounds:           rounds,
		RoundTimeout:     10 * time.Second,
		DisablePipeline:  o.lockstep,
	})
	if err != nil {
		return nil, err
	}
	var plan *adversary.Plan
	if sh.Malicious > 0 {
		plan, err = adversary.NewPlan(sh.Vehicles, sh.Malicious, adversary.ConstantLie{Value: 5}, seed+6)
		if err != nil {
			return nil, err
		}
		res.liars = plan.IDs()
		sort.Ints(res.liars)
	}

	conns := make([]transport.Conn, sh.Vehicles)
	ends := make([]transport.Conn, 0, 2*sh.Vehicles)
	vehicleErrs := make([]error, sh.Vehicles)
	var wg sync.WaitGroup
	for i := range conns {
		se, ve := transport.Pipe()
		ends = append(ends, se, ve)
		if o.tap {
			st, vt := &tapConn{inner: se, epoch: res.start}, &tapConn{inner: ve, epoch: res.start}
			res.server = append(res.server, st)
			res.vehicle = append(res.vehicle, vt)
			se, ve = st, vt
		}
		conns[i] = se
		cc := node.ClientConfig{VehicleID: i, Data: parts[i], Seed: seed + 100 + int64(i)}
		if plan != nil && plan.IsMalicious(i) {
			cc.Corrupt = adversary.ConstantLie{Value: 5}
		}
		wg.Add(1)
		go func(i int, c transport.Conn, cc node.ClientConfig) {
			defer wg.Done()
			vehicleErrs[i] = node.RunVehicle(c, cc)
		}(i, ve, cc)
	}
	res.srv = srv
	res.runStart = time.Now()
	res.report, err = srv.Run(conns)
	if err != nil {
		// Unblock every vehicle still waiting on its pipe.
		for _, c := range ends {
			_ = c.Close()
		}
	}
	wg.Wait()
	for _, c := range ends {
		_ = c.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	if err := errors.Join(vehicleErrs...); err != nil {
		return nil, fmt.Errorf("session vehicles: %w", err)
	}
	return res, nil
}

// healthy reports whether the session completed every round with no
// straggler, receive error, corrupt frame, retransmit or degraded round,
// and flagged exactly the planted liars.
func (r *sessionResult) healthy(rounds int) bool {
	rep := r.report
	return rep.Rounds == rounds && rep.Stragglers == 0 && rep.RecvErrors == 0 &&
		rep.CorruptFrames == 0 && rep.Retransmits == 0 && rep.DegradedRounds == 0 &&
		sameInts(rep.SuspectedMalicious, r.liars)
}
