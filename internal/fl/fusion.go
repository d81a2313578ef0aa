package fl

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/approx"
	"repro/internal/linalg"
	"repro/internal/nn"
)

// ErrNoTargets reports a round whose aggregation recovered no usable
// estimation target, so the shared model cannot be updated.
var ErrNoTargets = errors.New("fl: no usable estimation targets this round")

// NewModel builds the model every participant runs: one nonlinear layer
// from InputSize features to the scalar estimation head. The coded path
// needs exactly this shape, so that the end-to-end estimation stays a
// degree-d polynomial of the input (DESIGN.md §1).
func NewModel(inputSize int, act approx.Activation, seed int64) (*nn.Network, error) {
	return nn.New(nn.Config{LayerSizes: []int{inputSize, 1}, Activation: act, Seed: seed})
}

// Fusion is the fusion centre's side of a global round (paper §III-A):
// the shared model, the reference features it is distilled on, and the
// learning configuration. Both execution paths — the in-process System
// and the distributed node.Server — drive their rounds through one.
type Fusion struct {
	cfg    Config
	shared *nn.Network
	refX   [][]float64
}

// NewFusion validates cfg and the reference widths and builds the shared
// model with the given activation.
func NewFusion(cfg Config, refX [][]float64, act approx.Activation) (*Fusion, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(refX) == 0 {
		return nil, fmt.Errorf("fl: need a non-empty reference feature set")
	}
	for i, x := range refX {
		if len(x) != cfg.InputSize {
			return nil, fmt.Errorf("fl: reference sample %d has %d features, want %d", i, len(x), cfg.InputSize)
		}
	}
	shared, err := NewModel(cfg.InputSize, act, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("fl: shared model: %w", err)
	}
	if cfg.ServerStep == 0 {
		cfg.ServerStep = 0.5
	}
	return &Fusion{cfg: cfg, shared: shared, refX: cloneRows(refX)}, nil
}

// Shared returns the live shared model.
func (f *Fusion) Shared() *nn.Network { return f.shared }

// Begin opens a round: it hands the scheme a private clone of the shared
// model and returns the parameters the fusion centre broadcasts.
func (f *Fusion) Begin(scheme Scheme) ([]float64, error) {
	params := f.shared.Params()
	if err := scheme.BeginRound(f.shared.Clone()); err != nil {
		return nil, fmt.Errorf("fl: scheme begin round: %w", err)
	}
	return params, nil
}

// Update closes a round: it fits the shared model to the aggregated
// per-reference-sample targets, skipping Dropped ones, and returns the
// distillation loss. It returns ErrNoTargets, with the model untouched,
// when no target survived.
func (f *Fusion) Update(targets []float64) (float64, error) {
	if len(targets) != len(f.refX) {
		return 0, fmt.Errorf("fl: scheme produced %d targets for %d reference samples", len(targets), len(f.refX))
	}
	samples := make([]nn.Sample, 0, len(targets))
	for j, target := range targets {
		if IsDropped(target) {
			continue // aggregation could not recover this sample
		}
		samples = append(samples, nn.Sample{X: f.refX[j], Y: clamp01(target)})
	}
	if len(samples) == 0 {
		return 0, ErrNoTargets
	}
	loss, err := f.distill(samples)
	if err != nil {
		return 0, fmt.Errorf("fl: distillation: %w", err)
	}
	return loss, nil
}

// distill updates the shared model toward per-sample estimation targets.
// For the single-nonlinear-layer model the fit has a closed form — invert
// the activation on the targets (π = (1+tanh(z/2))/2 ⇒ z = 2·artanh(2π−1))
// and solve the linear least-squares problem for the weights — which is
// deterministic and free of gradient-descent oscillation.
func (f *Fusion) distill(samples []nn.Sample) (float64, error) {
	n := len(samples)
	// The logit fit must stay inside the activation's valid range. The
	// exact symmetric sigmoid is monotone everywhere, so ±3.9 (π clamped
	// to [0.02, 0.98]) is fine; a polynomial approximation is only
	// faithful on its fit interval (the paper's [-2, 2]) and turns
	// non-monotone beyond it — target logits outside that range would
	// drive pre-activations into the region where the polynomial
	// decreases again and scramble the model's predictions.
	zmax := 3.9
	if f.shared.Activation().Poly != nil {
		zmax = 2
	}
	piMax := (1 + math.Tanh(zmax/2)) / 2
	a := linalg.NewMatrix(n, f.cfg.InputSize+1)
	z := make([]float64, n)
	for i, smp := range samples {
		for j, v := range smp.X {
			a.Set(i, j, v)
		}
		a.Set(i, f.cfg.InputSize, 1) // bias column
		pi := math.Min(piMax, math.Max(1-piMax, smp.Y))
		z[i] = 2 * math.Atanh(2*pi-1)
	}
	// Ridge regularisation keeps the fit well-posed when a rare-event
	// feature is constant over the reference set (collinear with bias),
	// and — equally important — keeps the weight vector bounded along
	// nearly-collinear feature directions. Unregularised weights can grow
	// huge there while cancelling on the data manifold; Lagrange-encoded
	// inputs leave that manifold, so runaway weights would make honest
	// encoded estimations explode. λ scales with the sample count to
	// track the magnitude of AᵀA.
	wb, err := linalg.RidgeLeastSquares(a, z, 1e-3*float64(n))
	if err != nil {
		// Degenerate reference geometry: fall back to gradient descent.
		return f.shared.TrainFullBatch(samples, f.cfg.DistillRate, f.cfg.DistillEpochs)
	}
	// Damped server update: move partway from the current parameters to
	// the closed-form fit.
	old := f.shared.Params()
	for i := range wb {
		wb[i] = old[i] + f.cfg.ServerStep*(wb[i]-old[i])
	}
	if err := f.shared.SetParams(wb); err != nil {
		return 0, err
	}
	var total float64
	for _, smp := range samples {
		l, err := f.shared.Loss(smp.X, smp.Y)
		if err != nil {
			return 0, err
		}
		total += l
	}
	return total / float64(n), nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
