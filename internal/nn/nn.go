// Package nn implements the multi-layer neural network the paper's
// traffic-slowness application trains (paper §V).
//
// The network is a fully-connected perceptron whose hidden and output
// neurons use the symmetric sigmoid F(x) = (1-e^(-x))/(1+e^(-x)) of
// eq. 10, or — on the L-CoFL path — a polynomial replacement produced by
// package approx. The scalar output f ∈ (-1, 1) is mapped to the
// estimation result π = (1 + f)/2 and trained with the cross-entropy loss
// of eq. 11 by stochastic gradient descent (eq. 1).
//
// Networks are deterministic given a seed, cloneable, and expose their
// parameters as a flat vector so the fusion centre can broadcast them.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/approx"
	"repro/internal/linalg"
)

// Config describes a network. LayerSizes runs input → hidden… → output;
// the paper's application uses one scalar output.
type Config struct {
	// LayerSizes lists the width of every layer, input first.
	LayerSizes []int
	// Activation applies to every non-input layer.
	Activation approx.Activation
	// Seed drives the deterministic weight initialisation.
	Seed int64
}

// Network is a fully-connected multi-layer perceptron.
type Network struct {
	sizes   []int
	weights []*linalg.Matrix // weights[l]: sizes[l+1] × sizes[l]
	biases  [][]float64      // biases[l]: sizes[l+1]
	act     approx.Activation
}

// New builds a network with Xavier-style uniform initialisation.
func New(cfg Config) (*Network, error) {
	if len(cfg.LayerSizes) < 2 {
		return nil, fmt.Errorf("nn: need at least input and output layers, got %v", cfg.LayerSizes)
	}
	for i, s := range cfg.LayerSizes {
		if s < 1 {
			return nil, fmt.Errorf("nn: layer %d has size %d", i, s)
		}
	}
	if cfg.Activation.F == nil || cfg.Activation.DF == nil {
		return nil, fmt.Errorf("nn: activation with F and DF is required")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Network{
		sizes: append([]int(nil), cfg.LayerSizes...),
		act:   cfg.Activation,
	}
	for l := 0; l+1 < len(cfg.LayerSizes); l++ {
		in, out := cfg.LayerSizes[l], cfg.LayerSizes[l+1]
		w := linalg.NewMatrix(out, in)
		bound := math.Sqrt(6.0 / float64(in+out))
		for i := 0; i < out; i++ {
			for j := 0; j < in; j++ {
				w.Set(i, j, (2*rng.Float64()-1)*bound)
			}
		}
		n.weights = append(n.weights, w)
		n.biases = append(n.biases, make([]float64, out))
	}
	return n, nil
}

// InputSize returns the expected feature-vector length.
func (n *Network) InputSize() int { return n.sizes[0] }

// OutputSize returns the output-vector length.
func (n *Network) OutputSize() int { return n.sizes[len(n.sizes)-1] }

// Activation returns the network's current activation.
func (n *Network) Activation() approx.Activation { return n.act }

// SetActivation swaps the activation in place. This is the approximation
// hand-off of paper §IV Step 2: vehicles replace the symmetric sigmoid in
// every neuron by its polynomial fit once per FL session.
func (n *Network) SetActivation(a approx.Activation) error {
	if a.F == nil || a.DF == nil {
		return fmt.Errorf("nn: activation with F and DF is required")
	}
	n.act = a
	return nil
}

// Clone returns an independent deep copy sharing no state.
func (n *Network) Clone() *Network {
	out := &Network{
		sizes: append([]int(nil), n.sizes...),
		act:   n.act,
	}
	for l := range n.weights {
		out.weights = append(out.weights, n.weights[l].Clone())
		out.biases = append(out.biases, linalg.Clone(n.biases[l]))
	}
	return out
}

// Forward runs the network on one feature vector and returns the output
// activations.
func (n *Network) Forward(x []float64) ([]float64, error) {
	if len(x) != n.InputSize() {
		return nil, fmt.Errorf("nn: input length %d, want %d", len(x), n.InputSize())
	}
	a := linalg.Clone(x)
	for l := range n.weights {
		z, err := n.weights[l].MulVec(a)
		if err != nil {
			return nil, err
		}
		linalg.VecAddInPlace(z, n.biases[l])
		for i := range z {
			z[i] = n.act.F(z[i])
		}
		a = z
	}
	return a, nil
}

// Estimate returns the paper's estimation result π = (1 + f(x))/2 for a
// single-output network — the traffic-slowness probability. With the
// exact activation π ∈ (0, 1); polynomial activations can leave that
// range (use EstimateClamped where a probability is required).
func (n *Network) Estimate(x []float64) (float64, error) {
	if n.OutputSize() != 1 {
		return 0, fmt.Errorf("nn: Estimate requires a single output, network has %d", n.OutputSize())
	}
	out, err := n.Forward(x)
	if err != nil {
		return 0, err
	}
	return (1 + out[0]) / 2, nil
}

// EstimateClamped is Estimate restricted to [0, 1] — the estimation
// result as the application reports it. Polynomial activations are
// unbounded outside the approximation domain, so every interface that
// treats the estimate as a probability (uploads, aggregation, metrics)
// must use the clamped form; otherwise a single saturated model can
// dominate an average with a huge spurious value.
func (n *Network) EstimateClamped(x []float64) (float64, error) {
	pi, err := n.Estimate(x)
	if err != nil {
		return 0, err
	}
	if pi < 0 {
		return 0, nil
	}
	if pi > 1 {
		return 1, nil
	}
	return pi, nil
}

// clampProb keeps π inside (ε, 1-ε) so the cross-entropy loss and its
// gradient stay finite; polynomial activations can leave (-1, 1).
func clampProb(p float64) float64 {
	const eps = 1e-9
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

// gradClip bounds the output-layer delta. With the exact sigmoid the
// saturating derivative keeps deltas small automatically, but polynomial
// activations have non-vanishing derivatives everywhere: a sample whose
// clamped π opposes its label would otherwise produce a ~1/ε gradient and
// detonate the weights in one SGD step.
const gradClip = 10.0

func clipDelta(d float64) float64 {
	if d > gradClip {
		return gradClip
	}
	if d < -gradClip {
		return -gradClip
	}
	return d
}

// Loss returns the cross-entropy of eq. 11 for one sample with binary
// label y ∈ {0, 1}: L = -(y·ln π + (1-y)·ln(1-π)).
func (n *Network) Loss(x []float64, y float64) (float64, error) {
	pi, err := n.Estimate(x)
	if err != nil {
		return 0, err
	}
	pi = clampProb(pi)
	return -(y*math.Log(pi) + (1-y)*math.Log(1-pi)), nil
}

// Sample is one labelled training tuple (x_k, y_k) from a vehicle's local
// dataset D_i.
type Sample struct {
	// X is the normalised feature vector.
	X []float64
	// Y is the binary label (1 = slow traffic).
	Y float64
}

// TrainSGD performs epochs of per-sample stochastic gradient descent
// (paper eq. 1) over the samples with learning rate rho, shuffling with
// rng each epoch, and returns the mean loss of the final epoch.
func (n *Network) TrainSGD(samples []Sample, rho float64, epochs int, rng *rand.Rand) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("nn: no training samples")
	}
	if rho <= 0 {
		return 0, fmt.Errorf("nn: learning rate %g must be positive", rho)
	}
	if epochs < 1 {
		return 0, fmt.Errorf("nn: epochs %d must be >= 1", epochs)
	}
	if n.OutputSize() != 1 {
		// The paper's application trains a scalar estimation head
		// (eq. 11); vector targets are out of scope.
		return 0, fmt.Errorf("nn: SGD training requires a single output, network has %d", n.OutputSize())
	}
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	var lastLoss float64
	for e := 0; e < epochs; e++ {
		if rng != nil {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		var total float64
		for _, idx := range order {
			loss, err := n.step(samples[idx], rho)
			if err != nil {
				return 0, err
			}
			total += loss
		}
		lastLoss = total / float64(len(samples))
	}
	return lastLoss, nil
}

// step backpropagates one sample and applies the gradient in place.
func (n *Network) step(s Sample, rho float64) (float64, error) {
	if len(s.X) != n.InputSize() {
		return 0, fmt.Errorf("nn: sample length %d, want %d", len(s.X), n.InputSize())
	}
	L := len(n.weights)
	// Forward pass caching pre-activations z and activations a.
	as := make([][]float64, L+1)
	zs := make([][]float64, L)
	as[0] = linalg.Clone(s.X)
	for l := 0; l < L; l++ {
		z, err := n.weights[l].MulVec(as[l])
		if err != nil {
			return 0, err
		}
		linalg.VecAddInPlace(z, n.biases[l])
		zs[l] = z
		a := make([]float64, len(z))
		for i := range z {
			a[i] = n.act.F(z[i])
		}
		as[l+1] = a
	}

	// Loss and output-layer delta.
	// π = (1+f)/2, L = -(y ln π + (1-y) ln(1-π)),
	// dL/df = (π - y) / (2π(1-π)) · ... computing directly:
	// dL/dπ = -(y/π) + (1-y)/(1-π); dπ/df = 1/2.
	out := as[L][0]
	pi := clampProb((1 + out) / 2)
	loss := -(s.Y*math.Log(pi) + (1-s.Y)*math.Log(1-pi))
	dLdPi := -(s.Y / pi) + (1-s.Y)/(1-pi)
	delta := []float64{clipDelta(dLdPi * 0.5 * n.act.DF(zs[L-1][0]))}

	// Backward pass: propagate each layer's delta with the pre-update
	// weights, then apply the gradient step.
	for l := L - 1; l >= 0; l-- {
		var next []float64
		if l > 0 {
			next = make([]float64, len(as[l]))
			for j := range next {
				var s float64
				for i := range delta {
					s += n.weights[l].At(i, j) * delta[i]
				}
				next[j] = s * n.act.DF(zs[l-1][j])
			}
		}
		prev := as[l]
		for i := range delta {
			for j := range prev {
				n.weights[l].Set(i, j, n.weights[l].At(i, j)-rho*delta[i]*prev[j])
			}
			n.biases[l][i] -= rho * delta[i]
		}
		delta = next
	}
	return loss, nil
}

// Gradient computes the loss and the flat gradient vector (Params layout)
// of the cross-entropy loss for one sample, without updating the network.
func (n *Network) Gradient(s Sample) (float64, []float64, error) {
	if len(s.X) != n.InputSize() {
		return 0, nil, fmt.Errorf("nn: sample length %d, want %d", len(s.X), n.InputSize())
	}
	if n.OutputSize() != 1 {
		return 0, nil, fmt.Errorf("nn: Gradient requires a single output, network has %d", n.OutputSize())
	}
	L := len(n.weights)
	as := make([][]float64, L+1)
	zs := make([][]float64, L)
	as[0] = linalg.Clone(s.X)
	for l := 0; l < L; l++ {
		z, err := n.weights[l].MulVec(as[l])
		if err != nil {
			return 0, nil, err
		}
		linalg.VecAddInPlace(z, n.biases[l])
		zs[l] = z
		a := make([]float64, len(z))
		for i := range z {
			a[i] = n.act.F(z[i])
		}
		as[l+1] = a
	}
	out := as[L][0]
	pi := clampProb((1 + out) / 2)
	loss := -(s.Y*math.Log(pi) + (1-s.Y)*math.Log(1-pi))
	dLdPi := -(s.Y / pi) + (1-s.Y)/(1-pi)
	delta := []float64{clipDelta(dLdPi * 0.5 * n.act.DF(zs[L-1][0]))}

	// Per-layer gradients, assembled back-to-front then flattened in
	// Params order (front-to-back).
	wg := make([][]float64, L) // flattened weight grads per layer
	bg := make([][]float64, L)
	for l := L - 1; l >= 0; l-- {
		prev := as[l]
		wgl := make([]float64, len(delta)*len(prev))
		for i := range delta {
			for j := range prev {
				wgl[i*len(prev)+j] = delta[i] * prev[j]
			}
		}
		wg[l] = wgl
		bg[l] = linalg.Clone(delta)
		if l == 0 {
			break
		}
		next := make([]float64, len(as[l]))
		for j := range next {
			var sum float64
			for i := range delta {
				sum += n.weights[l].At(i, j) * delta[i]
			}
			next[j] = sum * n.act.DF(zs[l-1][j])
		}
		delta = next
	}
	flat := make([]float64, 0, n.NumParams())
	for l := 0; l < L; l++ {
		flat = append(flat, wg[l]...)
		flat = append(flat, bg[l]...)
	}
	return loss, flat, nil
}

// TrainFullBatch performs epochs of deterministic full-batch gradient
// descent: each epoch applies the mean gradient over all samples once.
// The fusion centre's distillation update uses this (package fl) because
// it is reproducible and free of SGD shuffle noise. Returns the mean loss
// of the final epoch.
func (n *Network) TrainFullBatch(samples []Sample, rate float64, epochs int) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("nn: no training samples")
	}
	if rate <= 0 {
		return 0, fmt.Errorf("nn: learning rate %g must be positive", rate)
	}
	if epochs < 1 {
		return 0, fmt.Errorf("nn: epochs %d must be >= 1", epochs)
	}
	var lastLoss float64
	acc := make([]float64, n.NumParams())
	for e := 0; e < epochs; e++ {
		for i := range acc {
			acc[i] = 0
		}
		var total float64
		for _, s := range samples {
			loss, g, err := n.Gradient(s)
			if err != nil {
				return 0, err
			}
			total += loss
			linalg.VecAddInPlace(acc, g)
		}
		params := n.Params()
		linalg.AXPYInPlace(params, -rate/float64(len(samples)), acc)
		if err := n.SetParams(params); err != nil {
			return 0, err
		}
		lastLoss = total / float64(len(samples))
	}
	return lastLoss, nil
}

// Params flattens all weights and biases into one vector, layer by layer
// (weights row-major, then biases). SetParams accepts the same layout.
func (n *Network) Params() []float64 {
	var out []float64
	for l := range n.weights {
		w := n.weights[l]
		for i := 0; i < w.Rows(); i++ {
			out = append(out, w.Row(i)...)
		}
		out = append(out, n.biases[l]...)
	}
	return out
}

// NumParams returns the flat parameter count.
func (n *Network) NumParams() int {
	total := 0
	for l := range n.weights {
		total += n.weights[l].Rows()*n.weights[l].Cols() + len(n.biases[l])
	}
	return total
}

// SetParams installs a flat parameter vector produced by Params.
func (n *Network) SetParams(p []float64) error {
	if len(p) != n.NumParams() {
		return fmt.Errorf("nn: parameter vector length %d, want %d", len(p), n.NumParams())
	}
	k := 0
	for l := range n.weights {
		w := n.weights[l]
		for i := 0; i < w.Rows(); i++ {
			for j := 0; j < w.Cols(); j++ {
				w.Set(i, j, p[k])
				k++
			}
		}
		for i := range n.biases[l] {
			n.biases[l][i] = p[k]
			k++
		}
	}
	return nil
}

// Sizes returns a copy of the layer sizes.
func (n *Network) Sizes() []int { return append([]int(nil), n.sizes...) }
