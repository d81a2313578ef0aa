package nn

import (
	"encoding/json"
	"fmt"

	"repro/internal/approx"
	"repro/internal/poly"
)

// Snapshot is a serialisable image of a network: architecture, flat
// parameters, and the activation (as polynomial coefficients, or empty
// for the exact symmetric sigmoid). It marshals to JSON with
// encoding/json, giving models a stable wire/disk format.
type Snapshot struct {
	// LayerSizes is the architecture, input first.
	LayerSizes []int `json:"layer_sizes"`
	// Params is the flat parameter vector (Params layout).
	Params []float64 `json:"params"`
	// ActivationPoly holds polynomial activation coefficients; empty
	// means the exact symmetric sigmoid of paper eq. 10.
	ActivationPoly []float64 `json:"activation_poly,omitempty"`
}

// Snapshot captures the network's current state.
func (n *Network) Snapshot() Snapshot {
	s := Snapshot{
		LayerSizes: n.Sizes(),
		Params:     n.Params(),
	}
	if p := n.act.Poly; p != nil {
		s.ActivationPoly = append([]float64(nil), p...)
	}
	return s
}

// FromSnapshot reconstructs a network. The activation is rebuilt from the
// stored polynomial, or the exact symmetric sigmoid when none is stored.
func FromSnapshot(s Snapshot) (*Network, error) {
	var act approx.Activation
	if len(s.ActivationPoly) > 0 {
		act = approx.FromPolynomial("snapshot-poly", poly.NewReal(s.ActivationPoly...))
	} else {
		act = approx.SymmetricSigmoid()
	}
	n, err := New(Config{LayerSizes: s.LayerSizes, Activation: act})
	if err != nil {
		return nil, fmt.Errorf("nn: snapshot: %w", err)
	}
	if err := n.SetParams(s.Params); err != nil {
		return nil, fmt.Errorf("nn: snapshot: %w", err)
	}
	return n, nil
}

// MarshalJSON lets a Network serialise directly.
func (n *Network) MarshalJSON() ([]byte, error) {
	return json.Marshal(n.Snapshot())
}

// UnmarshalNetworkJSON parses a network previously marshalled with
// MarshalJSON (a method form is impossible: a Network must be constructed,
// not zero-valued).
func UnmarshalNetworkJSON(data []byte) (*Network, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("nn: unmarshal snapshot: %w", err)
	}
	return FromSnapshot(s)
}
