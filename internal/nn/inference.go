package nn

import "fmt"

// Inference is a per-caller forward-pass arena over a shared, read-only
// network. Many Inference instances may run concurrently against the same
// Network as long as nobody trains it: each owns its activation scratch, so
// Forward/Predict here never touch the network's own buffers and need no
// locking. This is what lets every serving node (and every pooled Predict
// caller) run the classifier contention-free.
type Inference struct {
	net *Network
	as  [][]float64
}

// CloneForInference returns an inference handle sharing the network's
// weights with private scratch. The handle is NOT safe for concurrent use
// with itself — clone once per goroutine.
func (n *Network) CloneForInference() *Inference {
	inf := &Inference{net: n, as: make([][]float64, 0, len(n.Layers))}
	for _, l := range n.Layers {
		inf.as = append(inf.as, make([]float64, l.Out))
	}
	return inf
}

// InputDim returns the expected input width.
func (inf *Inference) InputDim() int { return inf.net.InputDim() }

// OutputDim returns the number of classes.
func (inf *Inference) OutputDim() int { return inf.net.OutputDim() }

// Forward computes logits for one input. The returned slice is scratch owned
// by this Inference: copy it before the next call if you need to keep it.
func (inf *Inference) Forward(x []float64) ([]float64, error) {
	if len(x) != inf.net.InputDim() {
		return nil, fmt.Errorf("nn: input dim %d, want %d", len(x), inf.net.InputDim())
	}
	return forwardInto(inf.net.Layers, x, nil, inf.as), nil
}

// Predict returns the argmax class for one input.
func (inf *Inference) Predict(x []float64) (int, error) {
	logits, err := inf.Forward(x)
	if err != nil {
		return 0, err
	}
	return argmax(logits), nil
}

// forwardInto is the shared forward kernel: it fills as[li] with layer li's
// activations (and zs[li] with pre-activations when zs is non-nil — the
// training path needs them for backprop) and returns the final activation
// slice. Inputs x and the weight slices are only read.
func forwardInto(layers []*Dense, x []float64, zs, as [][]float64) []float64 {
	in := x
	for li, l := range layers {
		a := as[li]
		var z []float64
		if zs != nil {
			z = zs[li]
		}
		for o := 0; o < l.Out; o++ {
			s := l.B[o]
			row := l.W[o*l.In : (o+1)*l.In]
			for i, v := range in {
				s += row[i] * v
			}
			if z != nil {
				z[o] = s
			}
			a[o] = l.Act.F(s)
		}
		in = a
	}
	return in
}

// argmax returns the index of the largest logit (first on ties).
func argmax(logits []float64) int {
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best
}
