// Package nn is a small, dependency-free neural-network library sufficient
// to reproduce the paper's strategy learner: dense feed-forward networks,
// ReLU/logistic activations, softmax cross-entropy classification, and the
// SGD, SGD-momentum and Adam optimizers compared in Figure 4 and Table III.
package nn

import (
	"fmt"
	"math"
)

// Activation is an elementwise nonlinearity. Deriv receives both the
// pre-activation input x and the output y = F(x), so implementations can use
// whichever is cheaper.
type Activation interface {
	F(x float64) float64
	Deriv(x, y float64) float64
	Name() string
}

// ReLU is max(0, x).
type ReLU struct{}

// F returns max(0, x).
func (ReLU) F(x float64) float64 { return math.Max(0, x) }

// Deriv returns 1 for positive inputs, else 0.
func (ReLU) Deriv(x, _ float64) float64 {
	if x > 0 {
		return 1
	}
	return 0
}

// Name returns "relu".
func (ReLU) Name() string { return "relu" }

// Logistic is the sigmoid 1/(1+e^-x) — the "logistic" activation of the
// paper's best-performing Adam-logistic configuration.
type Logistic struct{}

// F returns the sigmoid of x.
func (Logistic) F(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Deriv returns y(1-y).
func (Logistic) Deriv(_, y float64) float64 { return y * (1 - y) }

// Name returns "logistic".
func (Logistic) Name() string { return "logistic" }

// Identity passes values through; used for the output layer, whose softmax
// is folded into the loss.
type Identity struct{}

// F returns x.
func (Identity) F(x float64) float64 { return x }

// Deriv returns 1.
func (Identity) Deriv(_, _ float64) float64 { return 1 }

// Name returns "identity".
func (Identity) Name() string { return "identity" }

// ActivationByName resolves a serialized activation name.
func ActivationByName(name string) (Activation, error) {
	switch name {
	case "relu":
		return ReLU{}, nil
	case "logistic":
		return Logistic{}, nil
	case "identity":
		return Identity{}, nil
	default:
		return nil, fmt.Errorf("nn: unknown activation %q", name)
	}
}

// Softmax writes the softmax of logits into out (which may alias logits),
// using the max-subtraction trick for numerical stability.
func Softmax(logits, out []float64) {
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - maxv)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}
