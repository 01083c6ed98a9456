// Package policy is the decision layer of the keeper: it maps one observed
// feature vector to the channel-allocation strategy the device should switch
// to. The keeper, the serving shards and the experiment drivers all consume
// the Policy interface rather than a concrete network, so the brain can be a
// trained ANN, a fixed strategy, or a ground-truth oracle — and can be
// swapped at runtime.
//
// Two-level contract:
//
//	Provider  — a versioned, immutable policy artifact (a loaded checkpoint,
//	            a pinned strategy). Safe to share across goroutines.
//	Policy    — one consumer's instance, carrying private inference scratch.
//	            NOT safe for concurrent use; instantiate one per goroutine
//	            via Provider.NewPolicy.
//
// A Source publishes the current active (and optional shadow) provider
// atomically. Consumers that hold their own Policy instance compare the
// provider's version at each adaptation epoch and re-instantiate when it
// changed — which is exactly how the serving daemon hot-swaps a model across
// all shards at a drain-free epoch boundary.
package policy

import (
	"fmt"
	"math"
	"sync/atomic"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/dataset"
	"ssdkeeper/internal/features"
)

// Policy decides the channel-allocation strategy for one feature vector.
// Implementations may keep per-instance scratch: a Policy value is owned by
// a single consumer and is not safe for concurrent use.
type Policy interface {
	Decide(v features.Vector) (alloc.Strategy, error)
}

// Provider is a versioned, immutable policy artifact. Version identifies the
// artifact (checkpoint file name, "static", ...); NewPolicy instantiates a
// fresh consumer-owned Policy over it. Providers are safe to share across
// goroutines.
type Provider interface {
	Version() string
	NewPolicy() Policy
}

// StaticPolicy always answers the same strategy. It is the no-keeper
// baseline and a useful shadow-evaluation control.
type StaticPolicy struct {
	Strategy alloc.Strategy
}

// Decide returns the pinned strategy.
func (p StaticPolicy) Decide(features.Vector) (alloc.Strategy, error) {
	return p.Strategy, nil
}

// StaticProvider publishes a StaticPolicy under a version name.
type StaticProvider struct {
	Ver      string
	Strategy alloc.Strategy
}

// Version returns the provider's version name ("static" when unset).
func (p StaticProvider) Version() string {
	if p.Ver == "" {
		return "static"
	}
	return p.Ver
}

// NewPolicy returns the pinned-strategy policy (stateless, but a fresh value
// per consumer keeps the contract uniform).
func (p StaticProvider) NewPolicy() Policy {
	return StaticPolicy{Strategy: p.Strategy}
}

// OraclePolicy answers from labelled ground truth: the strategy measured
// best for the nearest labelled sample (L2 over the network input encoding).
// It is the upper bound the ANN is trained toward and a reference policy for
// shadow evaluation.
type OraclePolicy struct {
	inputs  [][]float64
	answers []alloc.Strategy
}

// NewOracle indexes labelled samples against a strategy space. Samples whose
// label falls outside the space are rejected.
func NewOracle(samples []dataset.Sample, strategies []alloc.Strategy) (*OraclePolicy, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("policy: oracle needs at least one labelled sample")
	}
	o := &OraclePolicy{
		inputs:  make([][]float64, 0, len(samples)),
		answers: make([]alloc.Strategy, 0, len(samples)),
	}
	for i, s := range samples {
		if s.Label < 0 || s.Label >= len(strategies) {
			return nil, fmt.Errorf("policy: sample %d label %d outside strategy space [0,%d)",
				i, s.Label, len(strategies))
		}
		o.inputs = append(o.inputs, s.Vector.Input())
		o.answers = append(o.answers, strategies[s.Label])
	}
	return o, nil
}

// Decide returns the measured-best strategy of the nearest labelled sample.
func (o *OraclePolicy) Decide(v features.Vector) (alloc.Strategy, error) {
	x := v.Input()
	best, bestDist := 0, math.Inf(1)
	for i, in := range o.inputs {
		d := 0.0
		for j, xv := range x {
			diff := xv - in[j]
			d += diff * diff
		}
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return o.answers[best], nil
}

// Source publishes the active and shadow providers to concurrent consumers.
// Swaps are atomic: a consumer sees either the old or the new provider,
// never a mix. The shadow slot holds a candidate under evaluation (nil when
// unset).
type Source struct {
	active atomic.Pointer[providerBox]
	shadow atomic.Pointer[providerBox]
}

// providerBox wraps the interface so the atomics can represent "unset" as a
// nil pointer distinct from a nil interface.
type providerBox struct{ p Provider }

// NewSource returns a source serving the given active provider.
func NewSource(active Provider) (*Source, error) {
	if active == nil {
		return nil, fmt.Errorf("policy: source needs a non-nil active provider")
	}
	s := &Source{}
	s.active.Store(&providerBox{p: active})
	return s, nil
}

// Active returns the current active provider (never nil).
func (s *Source) Active() Provider { return s.active.Load().p }

// SetActive atomically promotes p to active and returns the previous
// provider. Consumers pick the change up at their next adaptation epoch.
func (s *Source) SetActive(p Provider) (Provider, error) {
	if p == nil {
		return nil, fmt.Errorf("policy: cannot set a nil active provider")
	}
	return s.active.Swap(&providerBox{p: p}).p, nil
}

// Shadow returns the candidate under shadow evaluation, or nil.
func (s *Source) Shadow() Provider {
	b := s.shadow.Load()
	if b == nil {
		return nil
	}
	return b.p
}

// SetShadow atomically installs (or, with nil, clears) the shadow candidate
// and returns the previous one (nil when there was none).
func (s *Source) SetShadow(p Provider) Provider {
	var nb *providerBox
	if p != nil {
		nb = &providerBox{p: p}
	}
	prev := s.shadow.Swap(nb)
	if prev == nil {
		return nil
	}
	return prev.p
}
