// Package policy is the decision layer of the keeper: it maps one observed
// feature vector to the channel-allocation strategy the device should switch
// to. The keeper, the serving node and the experiment drivers all consume
// the Policy interface rather than a concrete network, so the brain can be
// swapped at runtime.
//
// Two-level contract:
//
//	Provider  — a versioned, immutable policy artifact (a loaded
//	            checkpoint). Safe to share across goroutines.
//	Policy    — one consumer's instance, carrying private inference scratch.
//	            NOT safe for concurrent use; instantiate one per goroutine
//	            via Provider.NewPolicy.
//
// A Source publishes the current active provider atomically. Consumers
// that hold their own Policy instance compare the provider's version at each
// adaptation epoch and re-instantiate when it changed — which is exactly how
// the serving daemon hot-swaps a model at a drain-free epoch boundary.
package policy

import (
	"fmt"
	"sync/atomic"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/features"
)

// Policy decides the channel-allocation strategy for one feature vector.
// Implementations may keep per-instance scratch: a Policy value is owned by
// a single consumer and is not safe for concurrent use.
type Policy interface {
	Decide(v features.Vector) (alloc.Strategy, error)
}

// Provider is a versioned, immutable policy artifact. Version identifies the
// artifact (a checkpoint's file name); NewPolicy instantiates a
// fresh consumer-owned Policy over it. Providers are safe to share across
// goroutines.
type Provider interface {
	Version() string
	NewPolicy() Policy
}

// Source publishes the active provider to concurrent consumers. Swaps are
// atomic: a consumer sees either the old or the new provider, never a mix.
type Source struct {
	active atomic.Pointer[providerBox]
}

// providerBox wraps the interface so it can sit behind an atomic pointer.
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
