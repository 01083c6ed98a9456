package learn

import (
	"fmt"

	"ssdkeeper/internal/nn"
	"ssdkeeper/internal/policy"
)

// Actuator is how the learner acts on the serving system: checkpoint a
// candidate, install it as shadow, clear the shadow, promote a version to
// active. RegistryActuator is the one production implementation; the
// interface is where the learner's tests substitute an in-memory registry.
type Actuator interface {
	// SaveCandidate checkpoints the network as the next registry version and
	// returns the version name. protect lists versions the actuator's
	// checkpoint GC must keep beyond the active and shadow.
	SaveCandidate(net *nn.Network, meta policy.Meta, protect []string) (string, error)
	InstallShadow(version string) error
	ClearShadow() error
	// Promote atomically makes version the active policy and returns the
	// version that was active before.
	Promote(version string) (previous string, err error)
}

// RegistryActuator acts directly on the daemon's checkpoint registry and
// policy source — the path behind ssdkeeperd -learn.
type RegistryActuator struct {
	Reg *policy.Registry
	Src *policy.Source
	// Keep bounds the registry to this many checkpoints after each save
	// (0: no GC).
	Keep int
}

// SaveCandidate writes the next version and garbage-collects old
// checkpoints, never touching the active, shadow, or protected versions.
func (a *RegistryActuator) SaveCandidate(net *nn.Network, meta policy.Meta, protect []string) (string, error) {
	version, err := a.Reg.NextVersion()
	if err != nil {
		return "", err
	}
	if err := a.Reg.SaveCheckpoint(version, net, meta); err != nil {
		return "", err
	}
	if a.Keep > 0 {
		keep := append([]string{version, a.Src.Active().Version()}, protect...)
		if sh := a.Src.Shadow(); sh != nil {
			keep = append(keep, sh.Version())
		}
		if _, err := a.Reg.GC(a.Keep, keep...); err != nil {
			return "", fmt.Errorf("learn: checkpoint gc: %w", err)
		}
	}
	return version, nil
}

// InstallShadow publishes the version as the shadow candidate.
func (a *RegistryActuator) InstallShadow(version string) error {
	m, err := a.Reg.Load(version)
	if err != nil {
		return err
	}
	a.Src.SetShadow(m)
	return nil
}

// ClearShadow removes any shadow candidate.
func (a *RegistryActuator) ClearShadow() error {
	a.Src.SetShadow(nil)
	return nil
}

// Promote atomically activates the version.
func (a *RegistryActuator) Promote(version string) (string, error) {
	m, err := a.Reg.Load(version)
	if err != nil {
		return "", err
	}
	prev, err := a.Src.SetActive(m)
	if err != nil {
		return "", err
	}
	return prev.Version(), nil
}
