package serve

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/trace"
)

type nopCompletion struct{}

func (nopCompletion) Complete(Response, error) {}

// BenchmarkNodeSubmitTo is the serve core's per-request path: SubmitTo with
// a callback into a started node — one shard, the keeper adapting, the
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
