package repro

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/field"
	"repro/internal/lagrange"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/reedsolomon"
	"repro/internal/traffic"
)

// benchOptions shrinks each figure run so a single benchmark iteration
// stays in the sub-second range; shapes are validated at full scale by
// cmd/lcofl (see EXPERIMENTS.md).
func benchOptions() experiments.Options {
	return experiments.Options{Vehicles: 32, Rounds: 3, Rows: 800, Seed: 7}
}

// benchFigure runs one figure driver per iteration.
func benchFigure(b *testing.B, name string) {
	b.Helper()
	benchFigureOpts(b, name, benchOptions())
}

// benchFigureOpts runs one figure driver per iteration with explicit
// options — the workers-sweep benchmarks pin Options.Workers through it.
func benchFigureOpts(b *testing.B, name string, o experiments.Options) {
	b.Helper()
	driver, err := experiments.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Seed = int64(7 + i) // vary the seed, keep the workload
		if _, err := driver(o); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per figure of the paper's evaluation (Figs. 2–9).

func BenchmarkFig2Convergence(b *testing.B) { benchFigure(b, "fig2") }
func BenchmarkFig3Vehicles(b *testing.B)    { benchFigure(b, "fig3") }
func BenchmarkFig4Trace(b *testing.B)       { benchFigure(b, "fig4") }
func BenchmarkFig5Malicious(b *testing.B)   { benchFigure(b, "fig5") }
func BenchmarkFig6AbsError(b *testing.B)    { benchFigure(b, "fig6") }
func BenchmarkFig7PDF(b *testing.B)         { benchFigure(b, "fig7") }
func BenchmarkFig8ErrPDF(b *testing.B)      { benchFigure(b, "fig8") }
func BenchmarkFig9Cost(b *testing.B)        { benchFigure(b, "fig9") }

// BenchmarkFig3VehiclesWorkers is the speedup baseline scripts/bench.sh
// reads: the same Fig. 3 workload at pinned worker counts. workers=1 runs
// the inline sequential paths (no pool overhead), so comparing it against
// workers=4 isolates the parallel execution engine's gain.
func BenchmarkFig3VehiclesWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(sizeName("workers", workers), func(b *testing.B) {
			o := benchOptions()
			o.Workers = workers
			benchFigureOpts(b, "fig3", o)
		})
	}
}

// BenchmarkEncodeVectorsWorkers sweeps the coder's worker pool on the
// paper-scale vector encode (M=16 batches × 64 features → V=100
// vehicles) — the library-level half of the speedup report.
func BenchmarkEncodeVectorsWorkers(b *testing.B) {
	const m, v, features = 16, 100, 64
	for _, workers := range []int{1, 2, 4} {
		b.Run(sizeName("workers", workers), func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			nodes := field.RandDistinct(rng, m, nil)
			points := field.RandDistinct(rng, v, nodes)
			coder, err := lagrange.NewCoder(nodes, points)
			if err != nil {
				b.Fatal(err)
			}
			coder.SetParallelism(workers)
			batches := make([][]field.Element, m)
			for i := range batches {
				batches[i] = make([]field.Element, features)
				for j := range batches[i] {
					batches[i][j] = field.Rand(rng)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coder.EncodeVectors(batches); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Proposition 1 scaling: encoding is O(M²) per vehicle, decoding is
// O((K+2E)³) at the fusion centre. The sub-benchmarks sweep one axis at a
// time so the scaling exponents are visible in the ns/op column. ---

func BenchmarkEncodeScalingM(b *testing.B) {
	for _, m := range []int{8, 16, 32, 64} {
		b.Run(sizeName("M", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			nodes := field.RandDistinct(rng, m, nil)
			points := field.RandDistinct(rng, 100, nodes)
			coder, err := lagrange.NewCoder(nodes, points)
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]field.Element, m)
			for i := range batch {
				batch[i] = field.Rand(rng)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coder.EncodeScalars(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeScalingV(b *testing.B) {
	for _, v := range []int{32, 64, 100, 200} {
		b.Run(sizeName("V", v), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			k := v / 3
			coeffs := make([]field.Element, k)
			for i := range coeffs {
				coeffs[i] = field.Rand(rng)
			}
			f := poly.New(coeffs...)
			xs := field.RandDistinct(rng, v, nil)
			ys := f.EvalMany(xs)
			e := reedsolomon.MaxErrors(v, k)
			for _, p := range rng.Perm(v)[:e] {
				ys[p] = field.Rand(rng)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := reedsolomon.Decode(xs, ys, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations called out in DESIGN.md §5. ---

// BenchmarkAblationApproxMethods compares the three approximation methods
// at equal degree; the reported supErr metric is the paper's Theorem 1 σ.
func BenchmarkAblationApproxMethods(b *testing.B) {
	act := approx.SymmetricSigmoid()
	methods := []approx.Method{
		approx.LeastSquares{SamplePoints: 21},
		approx.Chebyshev{},
		approx.Taylor{},
		approx.Remez{},
	}
	for _, m := range methods {
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var rep approx.Report
			for i := 0; i < b.N; i++ {
				var err error
				_, rep, err = approx.Evaluate(m, act.F, -2, 2, 3)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.MaxError, "supErr")
		})
	}
}

// BenchmarkAblationExactVsRealDecode contrasts the exact GF(p) decoder
// with the robust real-valued decoder on the same corruption pattern —
// the DESIGN.md §1 trade-off between quantised-exact and analog decoding.
func BenchmarkAblationExactVsRealDecode(b *testing.B) {
	const v, k, e = 100, 16, 30
	b.Run("exact-field", func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		coeffs := make([]field.Element, k)
		for i := range coeffs {
			coeffs[i] = field.Rand(rng)
		}
		f := poly.New(coeffs...)
		xs := field.RandDistinct(rng, v, nil)
		ys := f.EvalMany(xs)
		for _, p := range rng.Perm(v)[:e] {
			ys[p] = field.Rand(rng)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := reedsolomon.Decode(xs, ys, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("real-robust", func(b *testing.B) {
		rng := rand.New(rand.NewSource(4))
		nodes := lagrange.ChebyshevNodes(k, -1, 1)
		points := lagrange.ChebyshevNodes(v, -0.99991, 0.99991)
		vals := make([]float64, k)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		h, err := poly.InterpolateReal(nodes, vals)
		if err != nil {
			b.Fatal(err)
		}
		ys := make([]float64, v)
		for i, p := range points {
			ys[i] = h.Eval(p)
		}
		for _, p := range rng.Perm(v)[:e] {
			ys[p] = 5 + 10*rng.Float64()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := reedsolomon.DecodeRealRobust(points, ys, k, reedsolomon.RealOptions{InlierThreshold: 0.25}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationElementSelection quantifies the eq. 9 selection rule:
// Chebyshev-distributed encoding elements keep the redundancy bound D (and
// therefore the encoded-data range) near the Lebesgue constant, while
// equispaced nodes blow it up exponentially in M.
func BenchmarkAblationElementSelection(b *testing.B) {
	const m, v = 16, 100
	cases := []struct {
		name  string
		nodes []float64
	}{
		{"chebyshev", lagrange.ChebyshevNodes(m, -1, 1)},
		{"equispaced", lagrange.EquispacedNodes(m, -1, 1)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			points := lagrange.InteriorPoints(v, -0.999, 0.999, tc.nodes)
			var d float64
			for i := 0; i < b.N; i++ {
				coder, err := lagrange.NewRealCoder(tc.nodes, points)
				if err != nil {
					b.Fatal(err)
				}
				d = coder.Redundancy()
			}
			b.ReportMetric(d, "redundancyD")
		})
	}
}

// BenchmarkAggregateBatch measures the fusion centre's verification
// decode for one Aggregate call at growing slot counts, batch
// (shared-locator fast path, DESIGN.md §9) against per-slot decoding.
// The adversary count sits at the full eq. 6 budget, the regime where
// per-slot decoding is slowest; the batch advantage grows with S.
func BenchmarkAggregateBatch(b *testing.B) {
	const v, m, degree = 40, 8, 2
	act := approx.SymmetricSigmoid()
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(act.F, -2, 2, degree)
	if err != nil {
		b.Fatal(err)
	}
	net, err := nn.New(nn.Config{
		LayerSizes: []int{traffic.NumFeatures, 1},
		Activation: approx.FromPolynomial("ls", p),
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, slots := range []int{8, 32} {
		ds, err := traffic.Generate(traffic.GenConfig{Rows: m * slots, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		ref := ds.Features()
		for _, mode := range []string{"perslot", "batch"} {
			b.Run(sizeName("slots", slots)+"/mode="+mode, func(b *testing.B) {
				s, err := core.NewScheme(ref, core.SchemeConfig{
					NumVehicles: v, NumBatches: m, Degree: degree,
					Seed: 3, Workers: 1, DisableBatchDecode: mode == "perslot",
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.BeginRound(net); err != nil {
					b.Fatal(err)
				}
				ups := make([][]float64, v)
				for i := range ups {
					if ups[i], err = s.Upload(i, net); err != nil {
						b.Fatal(err)
					}
				}
				rng := rand.New(rand.NewSource(9))
				for _, id := range rng.Perm(v)[:s.MaxMalicious()] {
					for j := range ups[id] {
						ups[id][j] = ups[id][j]*2 + 7
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Aggregate(ups); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAggregateObs measures the observability layer's overhead on
// the fusion centre's hot path: the BenchmarkAggregateBatch workload
// with obs detached (mode=off), with counters and histograms only
// (mode=metrics), with the JSONL tracer also attached, writing to
// io.Discard (mode=trace), and with trace-context propagation on top —
// a round span parent installed via SetSpanParent so every
// core.aggregate span carries trace/span/parent fields (mode=propagate).
// scripts/bench.sh gates mode=off against the checked-in baseline so
// instrumentation cost can never creep into the disabled path.
func BenchmarkAggregateObs(b *testing.B) {
	const v, m, degree, slots = 40, 8, 2, 32
	act := approx.SymmetricSigmoid()
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(act.F, -2, 2, degree)
	if err != nil {
		b.Fatal(err)
	}
	net, err := nn.New(nn.Config{
		LayerSizes: []int{traffic.NumFeatures, 1},
		Activation: approx.FromPolynomial("ls", p),
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := traffic.Generate(traffic.GenConfig{Rows: m * slots, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	ref := ds.Features()
	for _, mode := range []string{"off", "metrics", "trace", "propagate"} {
		b.Run("mode="+mode, func(b *testing.B) {
			var o *obs.Obs
			switch mode {
			case "metrics":
				o = obs.New(obs.NewRegistry(), nil, obs.NewRealClock())
			case "trace", "propagate":
				clk := obs.NewRealClock()
				o = obs.New(obs.NewRegistry(), obs.NewTracer(io.Discard, clk), clk)
			}
			s, err := core.NewScheme(ref, core.SchemeConfig{
				NumVehicles: v, NumBatches: m, Degree: degree,
				Seed: 3, Workers: 1, Obs: o,
			})
			if err != nil {
				b.Fatal(err)
			}
			if mode == "propagate" {
				trace := obs.TraceIDFromSeed(3)
				s.SetSpanParent(obs.SpanContext{Trace: trace, Span: obs.DeriveSpan(trace, "node.round", 0)})
			}
			if err := s.BeginRound(net); err != nil {
				b.Fatal(err)
			}
			ups := make([][]float64, v)
			for i := range ups {
				if ups[i], err = s.Upload(i, net); err != nil {
					b.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(9))
			for _, id := range rng.Perm(v)[:s.MaxMalicious()] {
				for j := range ups[id] {
					ups[id][j] = ups[id][j]*2 + 7
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Aggregate(ups); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCodedInferenceRound measures one full exact coded-inference
// round at paper scale (V=100, M=16, degree 3): encode + 100 vehicle
// evaluations + decode.
func BenchmarkCodedInferenceRound(b *testing.B) {
	inf, err := core.NewInference(core.InferenceConfig{
		NumVehicles: 100, NumBatches: 16, FracBits: 7, Seed: 5,
	}, 3)
	if err != nil {
		b.Fatal(err)
	}
	act := approx.SymmetricSigmoid()
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(act.F, -2, 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	w := make([]float64, 16)
	for i := range w {
		w[i] = rng.NormFloat64() * 0.3
	}
	batches := make([][]float64, 16)
	for i := range batches {
		batches[i] = make([]float64, 16)
		for j := range batches[i] {
			batches[i][j] = rng.Float64()*2 - 1
		}
	}
	corrupt := map[int]field.Element{}
	for _, id := range rng.Perm(100)[:27] {
		corrupt[id] = field.Rand(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inf.Run(w, 0.1, p, batches, corrupt); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(axis string, n int) string {
	return axis + "=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationFracBits sweeps the fixed-point resolution of the
// verification channel: more fractional bits shrink the gap between the
// quantised estimation and the float64 computation (reported as
// quantErr), bounded above by the field-headroom rule of fixedpoint.
func BenchmarkAblationFracBits(b *testing.B) {
	act := approx.SymmetricSigmoid()
	p, err := approx.LeastSquares{SamplePoints: 21}.Fit(act.F, -2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	w := make([]float64, 16)
	for i := range w {
		w[i] = rng.NormFloat64() * 0.3
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	var z float64
	for i := range w {
		z += w[i] * x[i]
	}
	want := p.Eval(z + 0.1)
	for _, frac := range []uint{4, 8, 12, 16} {
		b.Run(sizeName("frac", int(frac)), func(b *testing.B) {
			b.ReportAllocs()
			inf, err := core.NewInference(core.InferenceConfig{
				NumVehicles: 20, NumBatches: 4, FracBits: frac, Seed: 9,
			}, 1)
			if err != nil {
				b.Fatal(err)
			}
			var got float64
			for i := 0; i < b.N; i++ {
				got, err = inf.PlaintextModel(w, 0.1, p, x)
				if err != nil {
					b.Fatal(err)
				}
			}
			diff := got - want
			if diff < 0 {
				diff = -diff
			}
			b.ReportMetric(diff, "quantErr")
		})
	}
}
