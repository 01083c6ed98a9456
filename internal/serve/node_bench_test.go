package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/trace"
)

type nopCompletion struct{}

func (nopCompletion) Complete(Response, error) {}

// BenchmarkNodeSubmitTo is the serve core's per-request path: SubmitTo with
// a callback into a started node — one device goroutine, the keeper adapting, the
// tenant log on. The window is closed by admission itself: the submitter
// yields whenever a tenant's queue is full, so at most QueueDepth+QueueLen
// requests per tenant are in flight whatever b.N is, and Accel keeps the
// simulated arrival rate below saturation, so the host is what is measured.
// bench_gate.sh holds it at 0 allocs/op and a B/op ceiling: what remains is
// the log's delta-encoded record, ~7 B here (DESIGN.md §13), so a log that
// regrows, or a per-request closure or Pending come back, fails CI.
func BenchmarkNodeSubmitTo(b *testing.B) {
	n := benchNode(b)
	defer n.Drain()
	loadNode(b, n.SubmitTo, func() {})
}

// BenchmarkNodeBatch is the same load through a Batch, as the wire listener
// drives a node: one stamp and one mailbox message per 64 requests (a
// socket read's worth). bench_gate.sh holds it to the same 0 allocs/op and
// 16 B/op.
func BenchmarkNodeBatch(b *testing.B) {
	n := benchNode(b)
	defer n.Drain()
	batch := n.NewBatch()
	loadNode(b, batch.SubmitTo, batch.Flush)
}

// BenchmarkNodeStatus is one status read, TenantCompleted, on an idle
// 4-tenant node with health judgement on: one mailbox round trip that copies
// the counters, not the histograms. bench_gate.sh holds it to 3 allocs/op
// (the reply channel and its buffer, the per-tenant slice) and 1024 B/op.
func BenchmarkNodeStatus(b *testing.B) {
	n := statusNode(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		completedSink = n.TenantCompleted(i % 4)
	}
}

var completedSink uint64

// BenchmarkReadyz is one GET /readyz through the control plane's handler
// into a recorder: one status read, and the handler and recorder around it
// (/healthz alone costs some 9 allocs and 1 KB on this recorder).
// bench_gate.sh holds it to 13 allocs/op and 3072 B/op.
func BenchmarkReadyz(b *testing.B) {
	h := (&Server{Node: statusNode(b)}).Handler(0)
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("/readyz = %d %q", rec.Code, rec.Body)
		}
	}
}

// statusNode is an idle, un-started node on a fake clock with
// DegradedScore 0.5, so every read judges health.
func statusNode(b *testing.B) *Node {
	cfg := testConfig(newFakeClock())
	cfg.DegradedScore = 0.5
	n, err := NewNode(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { n.Drain() })
	return n
}

// loadNode submits b.N requests, calling flush every 64 and before it yields
// to a full queue: a batch's slots free only once it is sent.
func loadNode(b *testing.B, submit func(Request, Completion) error, flush func()) {
	const pages = (64 << 20) / page
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			flush()
		}
		req := Request{
			Tenant: i % 4, Op: trace.Op(i / 4 % 2),
			Offset: int64(i%pages) * page, Size: page,
		}
		err := submit(req, nopCompletion{})
		for errors.Is(err, ErrQueueFull) {
			flush()
			runtime.Gosched()
			err = submit(req, nopCompletion{})
		}
		if err != nil {
			b.Fatalf("request %d: %v", i, err)
		}
	}
	flush()
	b.StopTimer()
}

// benchNode starts the node both benchmarks load.
func benchNode(b *testing.B) *Node {
	kCfg := keeperConfig()
	k, err := keeper.New(kCfg, forcedModel(b, len(kCfg.Strategies), 1))
	if err != nil {
		b.Fatal(err)
	}
	n, err := NewNode(Config{
		Device: kCfg.Device, Options: kCfg.Options, Accel: 500, Now: time.Now,
	}, k)
	if err != nil {
		b.Fatal(err)
	}
	n.Start()
	b.Cleanup(func() {
		if err := n.Err(); err != nil {
			b.Error(err)
		}
	})
	return n
}
