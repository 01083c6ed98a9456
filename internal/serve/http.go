package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"ssdkeeper/internal/learn"
)

// Wire endpoints:
//
//	POST /io        one JSON request  {"tenant":0,"op":"read","offset":0,"size":4096}
//	                → 200 {"latency_ns":..., "sim_ns":...}
//	POST /io/batch  text/plain, one line-protocol request per line
//	                ("<tenant> <R|W> <offset> <size>"); the whole batch is
//	                admitted open-loop, then answered line by line in order:
//	                "ok <latency_ns>" | "rej <reason>"
//	POST /model/reload  hot-swap the active (or shadow) policy from the
//	                checkpoint registry; see reload.go for the protocol
//	POST /tenant/drain?tenant=N    quiesce one tenant; → 200 TenantDrain JSON
//	POST /tenant/handoff?tenant=N  replay a TenantDrain's records here
//	POST /tenant/release?tenant=N  reopen a parked tenant's gate
//	GET  /metrics   Prometheus text exposition
//	GET  /healthz   liveness: "ok" | 503 "draining"/device error
//	GET  /readyz    readiness: "ok" | 503 while draining, poisoned, or a
//	                tenant handoff is in flight (fleet membership polls this)
//	     /debug/pprof/*  standard profiles
//
// Backpressure: a full tenant queue answers 429 with a Retry-After hint; a
// draining server answers 503, and so does a migrating tenant (the fleet
// router retries once the migration completes). Each request runs under the
// server's request timeout (Handler's reqTimeout), so a stalled pacer
// cannot strand clients.

// maxBodyBytes bounds request bodies; a batch of maxBatchLines maximal
// lines fits comfortably.
const (
	maxBodyBytes  = 4 << 20
	maxBatchLines = 65536
	// maxHandoffBytes bounds a tenant-handoff body; a record log is ~100
	// bytes per dispatched request as JSON, so this covers long-lived
	// tenants without letting a bad client exhaust memory.
	maxHandoffBytes = 256 << 20
)

// retryAfterSeconds is the backoff hint sent with 429/503. One second spans
// several pacer ticks and many device service times at any sane Accel.
const retryAfterSeconds = "1"

// Handler returns the daemon's HTTP surface. reqTimeout bounds each
// request's wait for simulated completion (0 means 30s).
func (s *Server) Handler(reqTimeout time.Duration) http.Handler {
	if reqTimeout <= 0 {
		reqTimeout = 30 * time.Second
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/io", func(w http.ResponseWriter, r *http.Request) { s.handleIO(w, r, reqTimeout) })
	mux.HandleFunc("/io/batch", func(w http.ResponseWriter, r *http.Request) { s.handleBatch(w, r, reqTimeout) })
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
	mux.HandleFunc("/learn/samples", s.handleLearnSamples)
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

// rejectStatus maps an admission error to its HTTP status.
func rejectStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrTenantMigrating):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrCanceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

// WriteReject answers a rejected request with rejectStatus's mapping and the
// Retry-After hint where a retry can succeed. Exported so the fleet router's
// HTTP adaptor answers a node's rejection exactly as the node would have.
func WriteReject(w http.ResponseWriter, err error) {
	status := rejectStatus(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	http.Error(w, err.Error(), status)
}

// bodyBufPool recycles /io request-body buffers, and ioRespPool the rendered
// response bytes.
var (
	bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	ioRespPool  = sync.Pool{New: func() any {
		b := make([]byte, 0, 64)
		return &b
	}}
)

// AppendIOResponse renders the /io completion without reflection. The byte
// form (including the trailing newline) is identical to what
// json.Encoder.Encode produced for jsonResponse, so clients see no change.
// Exported because the fleet router's /io adaptor renders the same body.
func AppendIOResponse(dst []byte, latencyNS, simNS int64) []byte {
	dst = append(dst, `{"latency_ns":`...)
	dst = strconv.AppendInt(dst, latencyNS, 10)
	dst = append(dst, `,"sim_ns":`...)
	dst = strconv.AppendInt(dst, simNS, 10)
	return append(dst, '}', '\n')
}

func (s *Server) handleIO(w http.ResponseWriter, r *http.Request, reqTimeout time.Duration) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body := bodyBufPool.Get().(*bytes.Buffer)
	body.Reset()
	defer bodyBufPool.Put(body)
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, err := DecodeJSONRequest(body.Bytes())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), reqTimeout)
	defer cancel()
	resp, err := s.Submit(ctx, req)
	if err != nil {
		WriteReject(w, err)
		return
	}
	bp := ioRespPool.Get().(*[]byte)
	out := AppendIOResponse((*bp)[:0], int64(resp.Latency), int64(resp.At))
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
	*bp = out[:0]
	ioRespPool.Put(bp)
}

// batchResult is one line's outcome: a handle to wait on, or an immediate
// rejection.
type batchResult struct {
	p   *Pending
	err error
}

// batchPool recycles the per-batch result slices, and scanBufPool the
// scanner's line buffer: under a sustained load generator /io/batch is the
// hot path and these are its two big per-request allocations.
var (
	batchPool = sync.Pool{New: func() any {
		s := make([]batchResult, 0, 256)
		return &s
	}}
	scanBufPool = sync.Pool{New: func() any {
		b := make([]byte, 64<<10)
		return &b
	}}
	batchWriterPool = sync.Pool{New: func() any {
		return bufio.NewWriterSize(nil, 32<<10)
	}}
)

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

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, reqTimeout time.Duration) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Admit every line first (open loop), then wait: the batch observes
	// queueing as simulated latency, not as serialized HTTP round trips.
	resultsp := batchPool.Get().(*[]batchResult)
	results := (*resultsp)[:0]
	defer func() {
		// Zero before pooling so recycled slots don't pin Pendings (and
		// their reply channels) past the batch's lifetime.
		clear(results)
		*resultsp = results[:0]
		batchPool.Put(resultsp)
	}()
	bufp := scanBufPool.Get().(*[]byte)
	defer scanBufPool.Put(bufp)
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	// The pooled buffer is the common-case size; the max is the body bound,
	// so any line that fits in a legal body parses — a longer line answers a
	// clear 400 instead of silently truncating the batch.
	sc.Buffer(*bufp, maxBodyBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if len(results) >= maxBatchLines {
			http.Error(w, fmt.Sprintf("batch exceeds %d lines", maxBatchLines), http.StatusBadRequest)
			return
		}
		req, err := DecodeLineBytes(line)
		if err != nil {
			results = append(results, batchResult{err: err})
			continue
		}
		p, err := s.SubmitAsync(req)
		results = append(results, batchResult{p: p, err: err})
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			err = fmt.Errorf("batch line exceeds %d bytes", maxBodyBytes)
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), reqTimeout)
	defer cancel()
	w.Header().Set("Content-Type", "text/plain")
	bw := batchWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Flush()
		bw.Reset(nil) // drop the ResponseWriter so the pool doesn't pin it
		batchWriterPool.Put(bw)
	}()
	var num [20]byte
	for _, res := range results {
		if res.err != nil {
			bw.WriteString("rej ")
			bw.WriteString(RejectReason(res.err))
			bw.WriteByte('\n')
			continue
		}
		resp, err := s.Wait(ctx, res.p)
		if err != nil {
			bw.WriteString("rej ")
			bw.WriteString(RejectReason(err))
			bw.WriteByte('\n')
			continue
		}
		bw.WriteString("ok ")
		bw.Write(strconv.AppendInt(num[:0], int64(resp.Latency), 10))
		bw.WriteByte('\n')
	}
}

// maxSamplePage bounds one /learn/samples response so a follower that
// lagged far behind pages rather than receiving one huge body.
const maxSamplePage = 2048

// samplePage is the /learn/samples response: the samples from ?since=N on,
// the sequence of the first one (greater than N when the journal evicted
// past the follower), and the sequence to poll from next.
type samplePage struct {
	First   uint64         `json:"first"`
	Next    uint64         `json:"next"`
	Samples []learn.Sample `json:"samples"`
}

// handleLearnSamples serves the sample-export feed a sidecar trainer polls:
// GET /learn/samples?since=N returns the journal from sequence N on.
func (s *Server) handleLearnSamples(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if s.sampleLog == nil {
		http.Error(w, "sample export not enabled (start with a keeper)", http.StatusNotImplemented)
		return
	}
	var since uint64
	if q := r.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, "since: unsigned integer required", http.StatusBadRequest)
			return
		}
		since = v
	}
	samples, first, next := s.sampleLog.Since(since, maxSamplePage)
	if samples == nil {
		samples = []learn.Sample{} // render [] rather than null
	}
	writeJSON(w, samplePage{First: first, Next: next, Samples: samples})
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
// migrating, not parked, log disabled) so the fleet router can tell a
// retryable condition from a protocol misuse.
func tenantErrStatus(err error) int {
	switch {
	case errors.Is(err, ErrTenantMigrating), errors.Is(err, ErrNoTenantLog):
		return http.StatusConflict
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

// RejectReason renders the compact reason token of the line protocol.
// Exported so the wire listener and the fleet router speak the same tokens.
func RejectReason(err error) string {
	switch {
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, ErrTenantMigrating):
		return "migrating"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrCanceled):
		return "timeout"
	default:
		return "invalid"
	}
}
