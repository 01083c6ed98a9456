package nn

import (
	"fmt"
	"math"
)

// The paper argues SSDKeeper's model fits comfortably in controller SRAM
// (Section IV.D counts 16 bytes per neuron). Deployed FTL models are
// normally quantized below float64; this file provides simulated
// quantization — weights are rounded to the target precision's grid but
// kept as float64 — so the accuracy cost of each deployment precision can
// be measured with the regular evaluation path.

// Precision is a storage format for deployed model parameters.
type Precision uint8

// Deployment precisions.
const (
	Float64 Precision = iota
	Float32
	Float16
	Int8
)

// String names the precision.
func (p Precision) String() string {
	switch p {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	case Float16:
		return "float16"
	case Int8:
		return "int8"
	default:
		return fmt.Sprintf("precision(%d)", uint8(p))
	}
}

// Bytes returns the per-parameter storage cost.
func (p Precision) Bytes() int {
	switch p {
	case Float64:
		return 8
	case Float32:
		return 4
	case Float16:
		return 2
	case Int8:
		return 1
	default:
		return 8
	}
}

// quantizeValue rounds v onto the precision's representable grid.
func quantizeValue(v float64, p Precision, scale float64) float64 {
	switch p {
	case Float64:
		return v
	case Float32:
		return float64(float32(v))
	case Float16:
		return float16Round(v)
	case Int8:
		if scale == 0 {
			return 0
		}
		q := math.Round(v / scale)
		if q > 127 {
			q = 127
		}
		if q < -128 {
			q = -128
		}
		return q * scale
	default:
		return v
	}
}

// float16Round rounds a float64 to the nearest IEEE 754 half-precision
// value (without handling the subnormal corner cases exactly — values that
// small are zero for our purposes).
func float16Round(v float64) float64 {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	abs := math.Abs(v)
	if abs < 6.104e-05 { // below half-precision normal range
		return 0
	}
	if abs > 65504 { // half-precision max
		return math.Copysign(65504, v)
	}
	// Round the mantissa to 10 bits: scale so the mantissa lsb is 1.
	exp := math.Floor(math.Log2(abs))
	step := math.Exp2(exp - 10)
	return math.Round(v/step) * step
}

// Quantized returns a copy of the network whose parameters are rounded to
// the given precision's grid (per-tensor affine scaling for Int8). The copy
// is independently trainable and serializable.
func (n *Network) Quantized(p Precision) *Network {
	out := &Network{}
	for _, l := range n.Layers {
		scaleW := int8Scale(l.W)
		scaleB := int8Scale(l.B)
		nl := &Dense{
			In: l.In, Out: l.Out, Act: l.Act,
			W:  make([]float64, len(l.W)),
			B:  make([]float64, len(l.B)),
			gw: make([]float64, len(l.W)),
			gb: make([]float64, len(l.B)),
		}
		for i, w := range l.W {
			nl.W[i] = quantizeValue(w, p, scaleW)
		}
		for i, b := range l.B {
			nl.B[i] = quantizeValue(b, p, scaleB)
		}
		out.Layers = append(out.Layers, nl)
	}
	out.initScratch()
	return out
}

// int8Scale returns the per-tensor affine scale mapping the tensor's range
// onto [-128, 127].
func int8Scale(vals []float64) float64 {
	maxAbs := 0.0
	for _, v := range vals {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	return maxAbs / 127
}

// StorageBytes estimates the deployed parameter footprint at a precision
// (Int8 includes one float32 scale per tensor).
func (n *Network) StorageBytes(p Precision) int {
	total := n.ParamCount() * p.Bytes()
	if p == Int8 {
		total += len(n.Layers) * 2 * 4
	}
	return total
}
