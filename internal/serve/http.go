package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
)

// The daemon's HTTP surface:
//
//	POST /io, /io/batch            the request front (front.go)
//	POST /model/reload  hot-swap the active policy from the checkpoint
//	                registry; see reload.go for the protocol
//	POST /tenant/drain?tenant=N    quiesce one tenant; → 200 TenantDrain JSON
//	POST /tenant/handoff?tenant=N  replay a TenantDrain's records here
//	POST /tenant/release?tenant=N  reopen a parked tenant's gate
//	GET  /metrics   Prometheus text exposition
//	GET  /healthz   liveness: "ok" | 503 "draining"/device error
//	GET  /readyz    readiness: "ok" | 503 while draining, poisoned, degraded
//	                (device health, judged by this read), or a tenant
//	                handoff is in flight (fleet membership polls this)
//	     /debug/pprof/*  standard profiles
//
// Backpressure: a full tenant queue answers 429 with a Retry-After hint; a
// draining server answers 503, and so does a migrating tenant (the fleet
// router retries once the migration completes). Each request's wait is
// bounded by Handler's reqTimeout, so a stalled pacer cannot strand clients.

// maxHandoffBytes bounds a tenant-handoff body; a record log is ~100 bytes
// per dispatched request as JSON, so this covers long-lived tenants without
// letting a bad client exhaust memory.
const maxHandoffBytes = 256 << 20

// Handler returns the daemon's HTTP surface. reqTimeout bounds each
// request's wait for simulated completion (0 means 30s); a request still
// unanswered then is refused with ErrCanceled and counted in
// ssdkeeper_rejected_total{reason="canceled"}.
func (s *Server) Handler(reqTimeout time.Duration) http.Handler {
	if reqTimeout <= 0 {
		reqTimeout = 30 * time.Second
	}
	mux := http.NewServeMux()
	front := NewFront(s.Node, reqTimeout, ErrCanceled)
	front.abandoned = &s.rejCanceled
	front.Mount(mux)
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
		switch {
		case s.Err() != nil:
			http.Error(w, fmt.Sprintf("device error: %v", s.Err()), http.StatusServiceUnavailable)
		case s.Draining():
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case s.Degraded():
			http.Error(w, "degraded: device health below threshold", http.StatusServiceUnavailable)
		case !s.Ready():
			http.Error(w, "tenant handoff in flight", http.StatusServiceUnavailable)
		default:
			fmt.Fprintln(w, "ok")
		}
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
// status endpoints (/model/reload, /tenant/*) render through a pooled
// encoder instead of allocating one per response.
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
	td, err := s.DrainTenant(tenant)
	if err != nil {
		http.Error(w, err.Error(), tenantErrStatus(err))
		return
	}
	writeJSON(w, td)
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
	// The body is a TenantDrain (as /tenant/drain produced it) or any JSON
	// object with a "records" array.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxHandoffBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var td TenantDrain
	if err := json.Unmarshal(body, &td); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	done, err := s.ReplayTenant(tenant, td.Records)
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
