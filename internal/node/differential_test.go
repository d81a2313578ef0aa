package node

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/poly"
	"repro/internal/traffic"
)

// TestDistributedMatchesInProcess pins that a distributed session runs
// exactly the round the reproduced figures run: a pipe session and an
// in-process fl.System over the same data, seeds and scheme end with
// bit-identical shared models and flag exactly the planted liars, at
// every worker count, with and without liars.
func TestDistributedMatchesInProcess(t *testing.T) {
	const vehicles, rounds = 20, 4
	ds, err := traffic.Generate(traffic.GenConfig{Rows: 1200, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := ds.Split(0.8, 62)
	if err != nil {
		t.Fatal(err)
	}
	refDS, err := traffic.Generate(traffic.GenConfig{Rows: 8 * 24, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	refX := refDS.Features()
	parts, err := train.PartitionIID(vehicles, 64)
	if err != nil {
		t.Fatal(err)
	}
	coeffs, err := approx.LeastSquares{SamplePoints: 21}.Fit(approx.SymmetricSigmoid().F, -2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	act := approx.FromPolynomial("wire-poly", poly.NewReal(coeffs...))

	for _, liars := range []float64{0, 0.2} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("liars=%g/workers=%d", liars, workers), func(t *testing.T) {
				flCfg := fl.Config{
					InputSize: traffic.NumFeatures, LocalEpochs: 3, LocalRate: 0.2,
					DistillEpochs: 20, DistillRate: 0.2, ServerStep: 0.5,
					Workers: workers, Seed: 65,
				}
				schemeCfg := core.SchemeConfig{NumVehicles: vehicles, NumBatches: 8, Degree: 1, Seed: 66, Workers: workers}
				var plan *adversary.Plan
				var want []int
				if liars > 0 {
					p, err := adversary.NewPlan(vehicles, liars, adversary.ConstantLie{Value: 5}, 67)
					if err != nil {
						t.Fatal(err)
					}
					plan, want = p, sortedCopy(p.IDs())
				}

				sys, err := fl.NewSystem(flCfg, parts, refX, act)
				if err != nil {
					t.Fatal(err)
				}
				scheme, err := core.NewScheme(refX, schemeCfg)
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < rounds; r++ {
					if _, err := sys.RunRound(scheme, plan, nil); err != nil {
						t.Fatal(err)
					}
				}

				clients := make([]ClientConfig, vehicles)
				for i := range clients {
					// fl seeds vehicle i's shuffle stream with Seed+100+i.
					clients[i] = ClientConfig{VehicleID: i, Data: parts[i], Seed: flCfg.Seed + 100 + int64(i)}
					if plan != nil && plan.IsMalicious(i) {
						clients[i].Corrupt = adversary.ConstantLie{Value: 5}
					}
				}
				report := soloRun(t, ServerConfig{
					FL: flCfg, Scheme: schemeCfg, RefX: refX, ActivationCoeffs: coeffs,
					Rounds: rounds, RoundTimeout: 10 * time.Second,
				}, clients)

				if !sameBits(report.FinalParams, sys.Shared().Params()) {
					t.Errorf("distributed params %v\n   in-process params %v", report.FinalParams, sys.Shared().Params())
				}
				if fmt.Sprint(report.SuspectedMalicious) != fmt.Sprint(want) {
					t.Errorf("distributed flagged %v, want %v", report.SuspectedMalicious, want)
				}
				if inproc := scheme.SuspectedMalicious(); fmt.Sprint(sortedCopy(inproc)) != fmt.Sprint(want) {
					t.Errorf("in-process flagged %v, want %v", inproc, want)
				}
			})
		}
	}
}

func sortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}
