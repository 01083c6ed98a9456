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

// BenchmarkNodeSubmitTo is the serve core's per-request path as the wire
// listener drives it: SubmitTo with a callback into a started node — one
// shard, the keeper adapting, the tenant log on. The window is closed by
// admission itself: the submitter yields whenever a tenant's queue is full,
// so at most QueueDepth+QueueLen requests per tenant are in flight whatever
// b.N is, and Accel keeps the simulated arrival rate below saturation, so
// the host is what is measured. bench_gate.sh holds it at 0 allocs/op and a
// B/op ceiling: what remains is the log's delta-encoded record, ~7 B here
// (DESIGN.md §13), so a log that regrows, or a per-request closure or
// Pending come back, fails CI.
func BenchmarkNodeSubmitTo(b *testing.B) {
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
	defer n.Drain()
	n.Start()
	const pages = (64 << 20) / page
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := Request{
			Tenant: i % 4, Op: trace.Op(i / 4 % 2),
			Offset: int64(i%pages) * page, Size: page,
		}
		err := n.SubmitTo(req, nopCompletion{})
		for errors.Is(err, ErrQueueFull) {
			runtime.Gosched()
			err = n.SubmitTo(req, nopCompletion{})
		}
		if err != nil {
			b.Fatalf("request %d: %v", i, err)
		}
	}
	b.StopTimer()
	if err := n.Err(); err != nil {
		b.Fatal(err)
	}
}
