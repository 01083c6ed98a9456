package policy

import (
	"fmt"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/nn"
)

// ANNPolicy is one consumer's inference instance over a shared, read-only
// classifier: argmax over the network's logits indexes the strategy space.
// It carries a per-caller nn.Inference arena over the shared weights, so any
// number of ANNPolicy instances run concurrently over the same model without
// locking — but a single instance is not safe for concurrent use.
type ANNPolicy struct {
	inf        *nn.Inference
	strategies []alloc.Strategy
	input      []float64 // encoding scratch, reused across Decide calls
}

// NewANN builds an inference policy over a trained network and its strategy
// space. The network's geometry must match: features.Dim inputs, one output
// class per strategy.
func NewANN(model *nn.Network, strategies []alloc.Strategy) (*ANNPolicy, error) {
	if err := checkGeometry(model, strategies); err != nil {
		return nil, err
	}
	return newANN(model, strategies), nil
}

func newANN(model *nn.Network, strategies []alloc.Strategy) *ANNPolicy {
	return &ANNPolicy{
		inf:        model.CloneForInference(),
		strategies: strategies,
		input:      make([]float64, 0, features.Dim),
	}
}

// Decide runs one forward pass and returns the argmax strategy.
func (p *ANNPolicy) Decide(v features.Vector) (alloc.Strategy, error) {
	idx, err := p.inf.Predict(v.AppendInput(p.input[:0]))
	if err != nil {
		return alloc.Strategy{}, err
	}
	return p.strategies[idx], nil
}

// checkGeometry validates a network against the feature schema and strategy
// space the binary was built with.
func checkGeometry(model *nn.Network, strategies []alloc.Strategy) error {
	switch {
	case model == nil:
		return fmt.Errorf("policy: nil network")
	case len(strategies) == 0:
		return fmt.Errorf("policy: empty strategy space")
	case model.InputDim() != features.Dim:
		return fmt.Errorf("policy: network input dim %d, want features.Dim %d",
			model.InputDim(), features.Dim)
	case model.OutputDim() != len(strategies):
		return fmt.Errorf("policy: network has %d classes for %d strategies",
			model.OutputDim(), len(strategies))
	}
	return nil
}

// Model is a versioned ANN artifact: a trained network bound to the strategy
// space it classifies over, typically loaded from a checkpoint by the
// Registry. The network is treated as read-only; NewPolicy hands each
// consumer its own inference scratch.
type Model struct {
	version    string
	net        *nn.Network
	strategies []alloc.Strategy
}

// NewModel wraps a trained network as a versioned provider, validating its
// geometry once so NewPolicy cannot fail later.
func NewModel(version string, net *nn.Network, strategies []alloc.Strategy) (*Model, error) {
	if version == "" {
		return nil, fmt.Errorf("policy: model needs a version name")
	}
	if err := checkGeometry(net, strategies); err != nil {
		return nil, err
	}
	return &Model{version: version, net: net, strategies: strategies}, nil
}

// Version returns the artifact's version name.
func (m *Model) Version() string { return m.version }

// NewPolicy instantiates a consumer-owned inference policy over the geometry
// NewModel validated.
func (m *Model) NewPolicy() Policy { return newANN(m.net, m.strategies) }
