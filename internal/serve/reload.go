package serve

import (
	"fmt"
	"net/http"
)

// Model reload protocol:
//
//	POST /model/reload                       promote the registry's latest to active
//	POST /model/reload?version=v007          promote a specific version
//	POST /model/reload?role=shadow&version=v007   install a shadow candidate
//	POST /model/reload?role=shadow&version=none   clear the shadow
//
// The swap is atomic and drain-free: the handler loads and verifies the
// checkpoint, then swaps the provider on the keeper's policy.Source. Each
// shard controller notices the new version at its own next adaptation epoch
// and re-instantiates its private policy instance there — in-flight requests
// are untouched and no request is ever rejected by a reload. The daemon's
// SIGHUP handler drives the same path as POST /model/reload.

// ReloadStatus reports the outcome of one reload.
type ReloadStatus struct {
	Role     string `json:"role"`               // "active" or "shadow"
	Version  string `json:"version"`            // version now published ("" when cleared)
	Previous string `json:"previous,omitempty"` // version published before
}

// Reloader resolves a (role, version) reload request against the daemon's
// checkpoint registry and swaps the provider on the policy source. role is
// "active" or "shadow"; version "" means the registry's latest, and for the
// shadow role "none" clears the candidate. Implementations must be safe for
// concurrent calls (the HTTP handler and a SIGHUP can race).
type Reloader func(role, version string) (ReloadStatus, error)

// SetReloader installs the model-reload hook, enabling POST /model/reload.
// Call before Handler is serving traffic.
func (s *Server) SetReloader(fn Reloader) { s.reloader = fn }

// Reload runs the installed reload hook. Calls are serialized so concurrent
// reloads (HTTP racing SIGHUP) resolve in some order rather than
// interleaving their read-swap sequences.
func (s *Server) Reload(role, version string) (ReloadStatus, error) {
	if s.reloader == nil {
		return ReloadStatus{}, fmt.Errorf("serve: no model registry configured (start with -model <dir>)")
	}
	switch role {
	case "active", "shadow":
	default:
		return ReloadStatus{}, fmt.Errorf("serve: unknown reload role %q (want active or shadow)", role)
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.reloader(role, version)
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
	role := r.URL.Query().Get("role")
	if role == "" {
		role = "active"
	}
	st, err := s.Reload(role, r.URL.Query().Get("version"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, st)
}
