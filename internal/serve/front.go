package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Backend is the request surface everything above a device submits through:
// a synchronous error means the request was refused and c is never called;
// otherwise c.Complete receives the outcome exactly once, on some other
// goroutine. *Node implements it, and so does the fleet router, which is how
// one HTTP front and one wire listener serve both.
type Backend interface {
	SubmitTo(req Request, c Completion) error
}

// Request-body bounds of the front: a body is at most maxBodyBytes (so is a
// batch line), a batch at most maxBatchLines lines.
const (
	maxBodyBytes  = 4 << 20
	maxBatchLines = 65536
)

// Front is the HTTP request front, the same on a node and on a router:
//
//	POST /io        one JSON request  {"tenant":0,"op":"read","offset":0,"size":4096}
//	                → 200 {"latency_ns":..., "sim_ns":...}
//	POST /io/batch  text/plain, one line-protocol request per line
//	                ("<tenant> <R|W> <offset> <size> [key]"); the whole body is
//	                decoded, then every line submitted open-loop, then answered
//	                line by line in order: "ok <latency_ns>" | "rej <reason>"
//
// Both decode first, submit every request through the backend's SubmitTo,
// wait once for all the outcomes and render them. A refusal answers /io with
// the status of its row in the reject vocabulary (reject.go: 429 and 503
// carry Retry-After) and a batch line with its reason token. The wait is
// bounded: a request still unanswered when the timeout ends, or when the
// client goes away, resolves to the front's unanswered error — it still runs
// to completion behind the backend, and its reply is dropped.
type Front struct {
	backend    Backend
	timeout    time.Duration
	unanswered error
	// abandoned, when set, counts the requests the front stopped waiting for.
	abandoned *atomic.Uint64
}

// NewFront builds the front over a backend. timeout bounds one HTTP
// request's wait (a whole batch rides one budget); unanswered is what a
// request nobody answered in time is refused with.
func NewFront(b Backend, timeout time.Duration, unanswered error) *Front {
	return &Front{backend: b, timeout: timeout, unanswered: unanswered}
}

// Mount registers /io and /io/batch on the mux.
func (f *Front) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/io", f.handleIO)
	mux.HandleFunc("/io/batch", f.handleBatch)
}

// waiter collects the outcomes of the requests one handler submitted and
// wakes the handler when the last one lands. Completions arrive on other
// goroutines (shard loops, upstream connection readers): Complete fills its
// slot and publishes it through set, and the handler reads a slot's outcome
// only after loading set. Pooled; a waiter whose handler gave up is left to
// the garbage collector, because late completions still hold its slots.
type waiter struct {
	slots   []slot
	pending atomic.Int64
	done    chan struct{} // capacity 1: the last completion never blocks
}

// slot is one submitted request and its outcome.
type slot struct {
	w    *waiter
	req  Request
	err  error // before submission: the decode failure, if any
	resp Response
	set  atomic.Bool
}

// Complete implements Completion.
func (s *slot) Complete(resp Response, err error) {
	s.resp, s.err = resp, err
	s.set.Store(true)
	if s.w.pending.Add(-1) == 0 {
		s.w.done <- struct{}{}
	}
}

// The front's pools: the waiter, the /io body buffer and rendered response,
// the batch scanner's line buffer and the batch reply writer.
var (
	waiterPool = sync.Pool{New: func() any {
		return &waiter{done: make(chan struct{}, 1)}
	}}
	bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	ioRespPool  = sync.Pool{New: func() any {
		b := make([]byte, 0, 64)
		return &b
	}}
	scanBufPool = sync.Pool{New: func() any {
		b := make([]byte, 64<<10)
		return &b
	}}
	batchWriterPool = sync.Pool{New: func() any {
		return bufio.NewWriterSize(nil, 32<<10)
	}}
)

// submitAll sends every slot through SubmitTo — lines that failed to decode
// complete in place — and waits for the outcomes, bounded by the timeout and
// the client's context. It reports whether they all landed; after false the
// caller renders what did (outcome) and must not repool the waiter.
func (f *Front) submitAll(ctx context.Context, wt *waiter) bool {
	if len(wt.slots) == 0 {
		return true
	}
	wt.pending.Store(int64(len(wt.slots)))
	for i := range wt.slots {
		s := &wt.slots[i]
		err := s.err
		if err == nil {
			err = f.backend.SubmitTo(s.req, s)
		}
		if err != nil {
			s.Complete(Response{}, err)
		}
	}
	t := time.NewTimer(f.timeout)
	defer t.Stop()
	select {
	case <-wt.done:
		return true
	case <-t.C:
	case <-ctx.Done():
	}
	return false
}

// outcome reads one slot after submitAll returned.
func (f *Front) outcome(s *slot) (Response, error) {
	if !s.set.Load() {
		if f.abandoned != nil {
			f.abandoned.Add(1)
		}
		return Response{}, f.unanswered
	}
	return s.resp, s.err
}

// appendIOResponse renders the /io completion without reflection. The byte
// form (including the trailing newline) is identical to what
// json.Encoder.Encode produces for jsonResponse.
func appendIOResponse(dst []byte, latencyNS, simNS int64) []byte {
	dst = append(dst, `{"latency_ns":`...)
	dst = strconv.AppendInt(dst, latencyNS, 10)
	dst = append(dst, `,"sim_ns":`...)
	dst = strconv.AppendInt(dst, simNS, 10)
	return append(dst, '}', '\n')
}

func (f *Front) handleIO(w http.ResponseWriter, r *http.Request) {
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
	wt := waiterPool.Get().(*waiter)
	wt.slots = append(wt.slots[:0], slot{w: wt, req: req})
	answered := f.submitAll(r.Context(), wt)
	resp, err := f.outcome(&wt.slots[0])
	if answered {
		waiterPool.Put(wt)
	}
	if err != nil {
		writeReject(w, err)
		return
	}
	bp := ioRespPool.Get().(*[]byte)
	out := appendIOResponse((*bp)[:0], int64(resp.Latency), int64(resp.At))
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
	*bp = out[:0]
	ioRespPool.Put(bp)
}

func (f *Front) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	wt := waiterPool.Get().(*waiter)
	wt.slots = wt.slots[:0]
	reusable := true
	defer func() {
		if reusable {
			waiterPool.Put(wt)
		}
	}()

	// Decode the whole body before submitting any of it: a batch answered
	// 400 has executed nothing.
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
		if len(wt.slots) >= maxBatchLines {
			http.Error(w, fmt.Sprintf("batch exceeds %d lines", maxBatchLines), http.StatusBadRequest)
			return
		}
		req, err := DecodeLineBytes(line)
		wt.slots = append(wt.slots, slot{w: wt, req: req, err: err})
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			err = fmt.Errorf("batch line exceeds %d bytes", maxBodyBytes)
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reusable = f.submitAll(r.Context(), wt)

	w.Header().Set("Content-Type", "text/plain")
	bw := batchWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Flush()
		bw.Reset(nil) // drop the ResponseWriter so the pool doesn't pin it
		batchWriterPool.Put(bw)
	}()
	var num [20]byte
	for i := range wt.slots {
		resp, err := f.outcome(&wt.slots[i])
		if err != nil {
			bw.WriteString("rej ")
			bw.WriteString(RejectReason(err))
		} else {
			bw.WriteString("ok ")
			bw.Write(strconv.AppendInt(num[:0], int64(resp.Latency), 10))
		}
		bw.WriteByte('\n')
	}
}
