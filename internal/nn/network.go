package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is one fully-connected layer: out = act(W·in + b). Weights are
// stored row-major: W[o*In+i] connects input i to output o.
type Dense struct {
	In, Out int
	W       []float64
	B       []float64
	Act     Activation

	// Gradient accumulators, reused across batches.
	gw []float64
	gb []float64
}

// NewDense builds a layer with activation-appropriate initialization: He for
// ReLU, Xavier otherwise.
func NewDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out,
		W:   make([]float64, in*out),
		B:   make([]float64, out),
		Act: act,
		gw:  make([]float64, in*out),
		gb:  make([]float64, out),
	}
	var scale float64
	if _, isRelu := act.(ReLU); isRelu {
		scale = math.Sqrt(2 / float64(in))
	} else {
		scale = math.Sqrt(1 / float64(in))
	}
	for i := range d.W {
		d.W[i] = rng.NormFloat64() * scale
	}
	return d
}

// Network is a feed-forward classifier. The final layer produces logits; the
// softmax is folded into the cross-entropy loss.
type Network struct {
	Layers []*Dense

	// Per-layer forward scratch (pre-activations and activations),
	// reused across samples.
	zs  [][]float64
	as  [][]float64
	del [][]float64
}

// NewMLP builds a multi-layer perceptron with the given layer sizes (e.g.
// {9, 64, 42} for the paper's network), hidden activation act and an
// Identity output layer. The seed makes initialization reproducible.
func NewMLP(sizes []int, act Activation, seed int64) (*Network, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: MLP needs at least input and output sizes, got %v", sizes)
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("nn: non-positive layer size in %v", sizes)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Network{}
	for i := 0; i+1 < len(sizes); i++ {
		a := act
		if i == len(sizes)-2 {
			a = Identity{}
		}
		n.Layers = append(n.Layers, NewDense(sizes[i], sizes[i+1], a, rng))
	}
	n.initScratch()
	return n, nil
}

func (n *Network) initScratch() {
	n.zs = n.zs[:0]
	n.as = n.as[:0]
	n.del = n.del[:0]
	for _, l := range n.Layers {
		n.zs = append(n.zs, make([]float64, l.Out))
		n.as = append(n.as, make([]float64, l.Out))
		n.del = append(n.del, make([]float64, l.Out))
	}
}

// InputDim returns the expected input width.
func (n *Network) InputDim() int { return n.Layers[0].In }

// OutputDim returns the number of classes.
func (n *Network) OutputDim() int { return n.Layers[len(n.Layers)-1].Out }

// Forward computes logits for one input. The returned slice is scratch owned
// by the network: copy it before the next call if you need to keep it.
func (n *Network) Forward(x []float64) ([]float64, error) {
	if len(x) != n.InputDim() {
		return nil, fmt.Errorf("nn: input dim %d, want %d", len(x), n.InputDim())
	}
	return forwardInto(n.Layers, x, n.zs, n.as), nil
}

// Predict returns the argmax class for one input.
func (n *Network) Predict(x []float64) (int, error) {
	logits, err := n.Forward(x)
	if err != nil {
		return 0, err
	}
	return argmax(logits), nil
}

// lossGrad runs forward+backward for one sample, accumulating parameter
// gradients into the layers and returning the cross-entropy loss.
func (n *Network) lossGrad(x []float64, label int) (float64, error) {
	logits, err := n.Forward(x)
	if err != nil {
		return 0, err
	}
	if label < 0 || label >= len(logits) {
		return 0, fmt.Errorf("nn: label %d outside [0,%d)", label, len(logits))
	}
	last := len(n.Layers) - 1
	probs := n.del[last]
	Softmax(logits, probs)
	loss := -math.Log(math.Max(probs[label], 1e-15))
	// dL/dlogit = softmax - onehot.
	probs[label] -= 1

	// Backward pass.
	for li := last; li >= 0; li-- {
		l := n.Layers[li]
		delta := n.del[li]
		var in []float64
		if li == 0 {
			in = x
		} else {
			in = n.as[li-1]
		}
		for o := 0; o < l.Out; o++ {
			d := delta[o]
			if d == 0 {
				continue
			}
			l.gb[o] += d
			grow := l.gw[o*l.In : (o+1)*l.In]
			for i, v := range in {
				grow[i] += d * v
			}
		}
		if li > 0 {
			prev := n.Layers[li-1]
			pd := n.del[li-1]
			pz := n.zs[li-1]
			pa := n.as[li-1]
			for i := 0; i < l.In; i++ {
				s := 0.0
				for o := 0; o < l.Out; o++ {
					s += l.W[o*l.In+i] * delta[o]
				}
				pd[i] = s * prev.Act.Deriv(pz[i], pa[i])
			}
		}
	}
	return loss, nil
}

// zeroGrads clears the accumulated gradients.
func (n *Network) zeroGrads() {
	for _, l := range n.Layers {
		for i := range l.gw {
			l.gw[i] = 0
		}
		for i := range l.gb {
			l.gb[i] = 0
		}
	}
}

// TrainBatch accumulates gradients over a minibatch and applies one
// optimizer step with the mean gradient. It returns the mean loss.
func (n *Network) TrainBatch(xs [][]float64, labels []int, opt Optimizer) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("nn: empty batch")
	}
	if len(xs) != len(labels) {
		return 0, fmt.Errorf("nn: %d inputs vs %d labels", len(xs), len(labels))
	}
	n.zeroGrads()
	total := 0.0
	for i, x := range xs {
		loss, err := n.lossGrad(x, labels[i])
		if err != nil {
			return 0, err
		}
		total += loss
	}
	inv := 1 / float64(len(xs))
	for li, l := range n.Layers {
		for i := range l.gw {
			l.gw[i] *= inv
		}
		for i := range l.gb {
			l.gb[i] *= inv
		}
		opt.Step(2*li, l.W, l.gw)
		opt.Step(2*li+1, l.B, l.gb)
	}
	return total * inv, nil
}

// Loss returns the mean cross-entropy over a labelled set.
func (n *Network) Loss(xs [][]float64, labels []int) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	total := 0.0
	probs := make([]float64, n.OutputDim())
	for i, x := range xs {
		logits, err := n.Forward(x)
		if err != nil {
			return 0, err
		}
		Softmax(logits, probs)
		total += -math.Log(math.Max(probs[labels[i]], 1e-15))
	}
	return total / float64(len(xs)), nil
}

// Accuracy returns the top-1 accuracy over a labelled set.
func (n *Network) Accuracy(xs [][]float64, labels []int) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	correct := 0
	for i, x := range xs {
		p, err := n.Predict(x)
		if err != nil {
			return 0, err
		}
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs)), nil
}

// ParamCount returns the number of trainable parameters.
func (n *Network) ParamCount() int {
	total := 0
	for _, l := range n.Layers {
		total += len(l.W) + len(l.B)
	}
	return total
}
