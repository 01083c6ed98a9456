package learn

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"ssdkeeper/internal/nn"
	"ssdkeeper/internal/policy"
)

// Actuator is how the learner acts on the serving system: checkpoint a
// candidate, install it as shadow, clear the shadow, promote a version to
// active. The in-daemon learner drives the registry and policy source
// directly; the sidecar drives the same four verbs over the daemon's
// /model/reload endpoint — the state machine cannot tell the difference.
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
// policy source — the in-process path behind ssdkeeperd -learn.
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

// HTTPActuator drives a remote daemon's /model/reload endpoint — the sidecar
// path behind keeper-train -follow. Checkpoints are written into the model
// directory the trainer shares with the daemon (the registry is the
// rendezvous); shadow installs and promotions go over HTTP so the daemon's
// own reload path, with all its verification, performs the swap.
type HTTPActuator struct {
	Reg    *policy.Registry // shared -model-dir
	Base   string           // daemon base URL, e.g. http://127.0.0.1:8080
	Client *http.Client     // nil: a 10s-timeout default
	Keep   int              // registry GC bound (0: no GC)
}

func (a *HTTPActuator) client() *http.Client {
	if a.Client != nil {
		return a.Client
	}
	return &http.Client{Timeout: 10 * time.Second}
}

// SaveCandidate writes the next version into the shared registry. GC only
// protects versions this trainer knows about (the daemon may have others in
// flight), so the keep-count should stay generous in sidecar deployments.
func (a *HTTPActuator) SaveCandidate(net *nn.Network, meta policy.Meta, protect []string) (string, error) {
	version, err := a.Reg.NextVersion()
	if err != nil {
		return "", err
	}
	if err := a.Reg.SaveCheckpoint(version, net, meta); err != nil {
		return "", err
	}
	if a.Keep > 0 {
		if _, err := a.Reg.GC(a.Keep, append([]string{version}, protect...)...); err != nil {
			return "", fmt.Errorf("learn: checkpoint gc: %w", err)
		}
	}
	return version, nil
}

// reload POSTs one /model/reload request and returns the previous version.
func (a *HTTPActuator) reload(role, version string) (string, error) {
	u := fmt.Sprintf("%s/model/reload?role=%s&version=%s",
		a.Base, url.QueryEscape(role), url.QueryEscape(version))
	resp, err := a.client().Post(u, "", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("learn: reload %s %s: %s: %s", role, version, resp.Status, body)
	}
	var st struct {
		Previous string `json:"previous"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return "", fmt.Errorf("learn: reload %s %s: decode response: %w", role, version, err)
	}
	return st.Previous, nil
}

// InstallShadow asks the daemon to shadow the version.
func (a *HTTPActuator) InstallShadow(version string) error {
	_, err := a.reload("shadow", version)
	return err
}

// ClearShadow asks the daemon to drop its shadow candidate.
func (a *HTTPActuator) ClearShadow() error {
	_, err := a.reload("shadow", "none")
	return err
}

// Promote asks the daemon to activate the version.
func (a *HTTPActuator) Promote(version string) (string, error) {
	return a.reload("active", version)
}

// exportPage is the /learn/samples response shape (mirrored in
// internal/serve's handler).
type exportPage struct {
	Next    uint64   `json:"next"`
	Samples []Sample `json:"samples"`
}

// FollowLoop polls a daemon's /learn/samples export, feeds the learner, and
// steps it — the sidecar trainer's main loop. It returns when ctx is done;
// transient poll errors are logged and retried at the next interval.
func FollowLoop(ctx context.Context, base string, lrn *Learner, interval time.Duration, logf func(format string, args ...any)) error {
	if interval <= 0 {
		interval = time.Second
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	client := &http.Client{Timeout: 10 * time.Second}
	var next uint64
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
		page, err := fetchSamples(ctx, client, base, next)
		if err != nil {
			logf("learn: poll %s: %v", base, err)
			continue
		}
		for _, s := range page.Samples {
			lrn.Offer(s)
		}
		next = page.Next
		if err := lrn.Step(time.Now()); err != nil {
			logf("%v", err)
		}
	}
}

func fetchSamples(ctx context.Context, client *http.Client, base string, since uint64) (exportPage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/learn/samples?since=%d", base, since), nil)
	if err != nil {
		return exportPage{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return exportPage{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return exportPage{}, fmt.Errorf("%s: %s", resp.Status, body)
	}
	var page exportPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return exportPage{}, err
	}
	return page, nil
}
