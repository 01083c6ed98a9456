package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
)

// The daemon's HTTP surface is its control plane; I/O arrives only over the
// wire listener (internal/wire):
//
//	POST /model/reload  hot-swap the active policy from the checkpoint
//	                registry; see reload.go for the protocol
//	POST /tenant/drain?tenant=N    quiesce one tenant; → 200 its record log
//	POST /tenant/handoff?tenant=N  replay a /tenant/drain body here
//	POST /tenant/release?tenant=N  reopen a parked tenant's gate
//	GET  /metrics   Prometheus text exposition
//	GET  /healthz   liveness: "ok" | 503 "draining"/device error
//	GET  /readyz    readiness: "ok" | 503 while draining, poisoned, degraded
//	                (device health, judged by this read), or a tenant
//	                handoff is in flight
//	GET  /status    the node's status record (Node.Status) as JSON; fleet
//	                membership polls this
//	     /debug/pprof/*  standard profiles

// maxHandoffBytes bounds a tenant-handoff body without letting a bad client
// exhaust memory. The body is the tenant log's own encoding, about 8 B per
// dispatched request, so it admits some 30 M records.
const maxHandoffBytes = 256 << 20

// Handler returns the daemon's HTTP control plane. The duration is unused:
// it bounded the retired HTTP request front's wait, and stays in the
// signature for existing callers.
func (s *Server) Handler(time.Duration) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/model/reload", s.handleReload)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.WriteMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case s.Err() != nil:
			http.Error(w, fmt.Sprintf("device error: %v", s.Err()), http.StatusServiceUnavailable)
		case s.Draining():
			http.Error(w, "draining", http.StatusServiceUnavailable)
		default:
			fmt.Fprintln(w, "ok")
		}
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if st := s.Status(); !st.Ready {
			http.Error(w, st.NotReady, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Status())
	})
	mux.HandleFunc("/tenant/drain", s.handleTenantDrain)
	mux.HandleFunc("/tenant/handoff", s.handleTenantHandoff)
	mux.HandleFunc("/tenant/release", s.handleTenantRelease)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// jsonEnc pairs a growth buffer with a json.Encoder bound to it, so the
// JSON endpoints (/status, /model/reload, /tenant/handoff) render through a
// pooled encoder instead of allocating one per response.
type jsonEnc struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncPool = sync.Pool{New: func() any {
	e := &jsonEnc{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// writeJSON renders v through a pooled encoder and writes it as one JSON
// response body.
func writeJSON(w http.ResponseWriter, v any) {
	e := jsonEncPool.Get().(*jsonEnc)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		jsonEncPool.Put(e)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(e.buf.Bytes())
	jsonEncPool.Put(e)
}

// tenantParam parses the required ?tenant=N query parameter.
func tenantParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return 0, false
	}
	t, err := strconv.Atoi(r.URL.Query().Get("tenant"))
	if err != nil {
		http.Error(w, "tenant: integer required", http.StatusBadRequest)
		return 0, false
	}
	return t, true
}

// tenantErrStatus maps a tenant-lifecycle error onto an HTTP status: the
// admission statuses where they apply, 409 for gate-state conflicts (already
// migrating, not parked) so the fleet router can tell a retryable condition
// from a protocol misuse.
func tenantErrStatus(err error) int {
	switch {
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBadHandoff):
		return http.StatusBadRequest
	default:
		return http.StatusConflict
	}
}

func (s *Server) handleTenantDrain(w http.ResponseWriter, r *http.Request) {
	tenant, ok := tenantParam(w, r)
	if !ok {
		return
	}
	_, log, err := s.drainLog(tenant)
	if err != nil {
		http.Error(w, err.Error(), tenantErrStatus(err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(log.handoffLen(), 10))
	// A failed write leaves the reader a short body, which its decoder
	// refuses; the tenant stays parked here for the router to release.
	_ = log.writeHandoff(w)
}

// handoffReply reports how many records a handoff replayed.
type handoffReply struct {
	Tenant   int `json:"tenant"`
	Replayed int `json:"replayed"`
}

func (s *Server) handleTenantHandoff(w http.ResponseWriter, r *http.Request) {
	tenant, ok := tenantParam(w, r)
	if !ok {
		return
	}
	// The body is a /tenant/drain body, decoded as it streams in.
	done, err := s.replayHandoff(tenant, http.MaxBytesReader(w, r.Body, maxHandoffBytes))
	if err != nil {
		http.Error(w, err.Error(), tenantErrStatus(err))
		return
	}
	writeJSON(w, handoffReply{Tenant: tenant, Replayed: done})
}

func (s *Server) handleTenantRelease(w http.ResponseWriter, r *http.Request) {
	tenant, ok := tenantParam(w, r)
	if !ok {
		return
	}
	if err := s.ReleaseTenant(tenant); err != nil {
		http.Error(w, err.Error(), tenantErrStatus(err))
		return
	}
	fmt.Fprintln(w, "ok")
}
