package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"repro/internal/adversary"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/traffic"
)

// inproc is one in-process L-CoFL deployment composed exactly as
// experiments.Scenario.Run(experiments.LCoFL) composes it, with the same
// seed offsets, so the benchmark times the library's own composition
// (pinned by checkFidelity).
type inproc struct {
	sys       *fl.System
	coded     *core.Scheme
	plan      *adversary.Plan
	liars     []int
	refX      [][]float64
	testX     [][]float64
	newScheme time.Duration // core.NewScheme, the reference Lagrange encode
}

// polyActivation is the least-squares fit of the symmetric sigmoid on
// [-2, 2] over 21 points that every L-CoFL model installs.
func polyActivation(degree int) ([]float64, error) {
	exact := approx.SymmetricSigmoid()
	return approx.LeastSquares{SamplePoints: 21}.Fit(exact.F, -2, 2, degree)
}

// localRate is the local SGD rate: 0.2, scaled by 1/d² above degree 1.
func localRate(degree int) float64 { return 0.2 / float64(degree*degree) }

// splitData generates the seed's traffic data: the vehicles' IID
// partitions, the reference features and the test set.
func splitData(sh shape, seed int64) (parts [][]nn.Sample, refX, testX [][]float64, err error) {
	ds, err := traffic.Generate(traffic.GenConfig{Rows: sh.Rows, Seed: seed})
	if err != nil {
		return nil, nil, nil, err
	}
	train, test, err := ds.Split(0.8, seed+1)
	if err != nil {
		return nil, nil, nil, err
	}
	refDS, err := traffic.Generate(traffic.GenConfig{Rows: sh.RefRows, Seed: seed + 2})
	if err != nil {
		return nil, nil, nil, err
	}
	parts, err = train.PartitionIID(sh.Vehicles, seed+3)
	if err != nil {
		return nil, nil, nil, err
	}
	return parts, refDS.Features(), test.Features(), nil
}

func newInproc(sh shape, seed int64, workers int) (*inproc, error) {
	parts, refX, testX, err := splitData(sh, seed)
	if err != nil {
		return nil, err
	}
	p, err := polyActivation(sh.Degree)
	if err != nil {
		return nil, err
	}
	act := approx.FromPolynomial(fmt.Sprintf("ls-%d", sh.Degree), p)
	cfg := fl.Config{
		InputSize:     traffic.NumFeatures,
		LocalEpochs:   sh.LocalEpochs,
		LocalRate:     localRate(sh.Degree),
		DistillEpochs: 30,
		DistillRate:   0.2,
		ServerStep:    0.5,
		Seed:          seed + 5,
		Workers:       workers,
	}
	sys, err := fl.NewSystem(cfg, parts, refX, act)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	coded, err := core.NewScheme(refX, core.SchemeConfig{
		NumVehicles: sh.Vehicles,
		NumBatches:  sh.Batches,
		Degree:      sh.Degree,
		Seed:        seed + 6,
		Workers:     workers,
	})
	if err != nil {
		return nil, err
	}
	ip := &inproc{sys: sys, coded: coded, refX: refX, testX: testX, newScheme: time.Since(t0)}
	if sh.Malicious > 0 {
		ip.plan, err = adversary.NewPlan(sh.Vehicles, sh.Malicious, adversary.ConstantLie{Value: 5}, seed+7)
		if err != nil {
			return nil, err
		}
		ip.liars = ip.plan.IDs()
		sort.Ints(ip.liars)
	}
	return ip, nil
}

// round runs one global round through scheme (the bare core.Scheme, or a
// wrapper around it) and reports whether it passed the per-round checks:
// no verification slot failed to decode and exactly the planted liars
// were flagged.
func (ip *inproc) round(scheme fl.Scheme) (bool, error) {
	if _, err := ip.sys.RunRound(scheme, ip.plan, nil); err != nil {
		return false, err
	}
	return ip.coded.DecodeFailures == 0 && sameInts(ip.coded.SuspectedMalicious(), ip.liars), nil
}

// testEstimates is the final shared model's estimate of every test
// sample, as Scenario.Run reports it in RunOutput.TestEstimates.
func (ip *inproc) testEstimates() ([]float64, error) {
	out := make([]float64, len(ip.testX))
	for i, x := range ip.testX {
		pi, err := ip.sys.Shared().EstimateClamped(x)
		if err != nil {
			return nil, err
		}
		out[i] = pi
	}
	return out, nil
}

// paramsHash fingerprints a parameter vector bit for bit.
func paramsHash(params []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range params {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// sameInts reports whether two ascending ID lists are equal; nil and
// empty are equal.
func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
