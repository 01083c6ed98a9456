package serve

import (
	"fmt"
	"net/http"
)

// Model reload protocol:
//
//	POST /model/reload                       promote the registry's latest to active
//	POST /model/reload?version=v007          promote a specific version
//
// version is the only parameter. Any other is refused with 400 and changes
// nothing, so a request written for an older protocol (role=shadow&version=…)
// cannot turn into a promotion.
//
// The swap is atomic and drain-free: the handler loads and verifies the
// checkpoint, then swaps the provider on the keeper's policy.Source. Each
// shard controller notices the new version at its own next adaptation epoch
// and re-instantiates its private policy instance there — in-flight requests
// are untouched and no request is ever rejected by a reload. The daemon's
// SIGHUP handler drives the same path as POST /model/reload.

// ReloadStatus reports the outcome of one reload.
type ReloadStatus struct {
	Version  string `json:"version"`            // version now active
	Previous string `json:"previous,omitempty"` // version published before
}

// Reloader resolves a reload request against the daemon's checkpoint
// registry and promotes the checkpoint to active on the policy source;
// version "" means the registry's latest. Implementations must be safe for
// concurrent calls (the HTTP handler and a SIGHUP can race).
type Reloader func(version string) (ReloadStatus, error)

// SetReloader installs the model-reload hook, enabling POST /model/reload.
// Call before Handler is serving traffic.
func (s *Server) SetReloader(fn Reloader) { s.reloader = fn }

// Reload runs the installed reload hook. Calls are serialized so concurrent
// reloads (HTTP racing SIGHUP) resolve in some order rather than
// interleaving their read-swap sequences.
func (s *Server) Reload(version string) (ReloadStatus, error) {
	if s.reloader == nil {
		return ReloadStatus{}, fmt.Errorf("serve: no model registry configured (start with -model <dir>)")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.reloader(version)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.reloader == nil {
		http.Error(w, "no model registry configured (start with -model <dir>)", http.StatusNotImplemented)
		return
	}
	q := r.URL.Query()
	for k := range q {
		if k != "version" {
			http.Error(w, fmt.Sprintf("unknown reload parameter %q (only version is accepted)", k), http.StatusBadRequest)
			return
		}
	}
	st, err := s.Reload(q.Get("version"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, st)
}
