package nn

import "math"

// Optimizer applies one update step to a parameter tensor given its
// gradient. The id identifies the tensor so stateful optimizers (momentum,
// Adam, ...) can keep per-tensor state; a given id must always refer to a
// tensor of the same length.
type Optimizer interface {
	Step(id int, params, grads []float64)
	Name() string
}

// SGD is plain stochastic gradient descent: w := w - lr*g. The paper uses an
// initial learning rate of 0.2.
type SGD struct {
	LR float64
}

// NewSGD returns plain SGD with the paper's learning rate when lr <= 0.
func NewSGD(lr float64) *SGD {
	if lr <= 0 {
		lr = 0.2
	}
	return &SGD{LR: lr}
}

// Step applies w := w - lr*g.
func (s *SGD) Step(_ int, params, grads []float64) {
	for i := range params {
		params[i] -= s.LR * grads[i]
	}
}

// Name returns "sgd".
func (s *SGD) Name() string { return "sgd" }

// Momentum is SGD with classical momentum: v := mu*v - lr*g; w := w + v.
// The paper uses momentum 0.9.
type Momentum struct {
	LR, Mu float64
	vel    map[int][]float64
}

// NewMomentum returns SGD-momentum with the paper's hyperparameters when
// arguments are non-positive (lr 0.2, mu 0.9).
func NewMomentum(lr, mu float64) *Momentum {
	if lr <= 0 {
		lr = 0.2
	}
	if mu <= 0 {
		mu = 0.9
	}
	return &Momentum{LR: lr, Mu: mu, vel: make(map[int][]float64)}
}

// Step applies the momentum update.
func (m *Momentum) Step(id int, params, grads []float64) {
	v, ok := m.vel[id]
	if !ok {
		v = make([]float64, len(params))
		m.vel[id] = v
	}
	for i := range params {
		v[i] = m.Mu*v[i] - m.LR*grads[i]
		params[i] += v[i]
	}
}

// Name returns "sgd-momentum".
func (m *Momentum) Name() string { return "sgd-momentum" }

// Adam combines momentum (first moment) and RMSProp (second moment) with
// bias correction, per Kingma & Ba. The paper's initial learning rate is
// 0.02.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	m, v                  map[int][]float64
	t                     map[int]int
}

// NewAdam returns Adam with the paper's learning rate (0.02) and the
// standard beta defaults when arguments are non-positive.
func NewAdam(lr float64) *Adam {
	if lr <= 0 {
		lr = 0.02
	}
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[int][]float64), v: make(map[int][]float64), t: make(map[int]int),
	}
}

// Step applies the bias-corrected Adam update.
func (a *Adam) Step(id int, params, grads []float64) {
	m, ok := a.m[id]
	if !ok {
		m = make([]float64, len(params))
		a.m[id] = m
		a.v[id] = make([]float64, len(params))
	}
	v := a.v[id]
	a.t[id]++
	t := float64(a.t[id])
	c1 := 1 - math.Pow(a.Beta1, t)
	c2 := 1 - math.Pow(a.Beta2, t)
	for i := range params {
		g := grads[i]
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
		mhat := m[i] / c1
		vhat := v[i] / c2
		params[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
	}
}

// Name returns "adam".
func (a *Adam) Name() string { return "adam" }
