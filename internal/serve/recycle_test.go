package serve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
)

// taggedCompletion is one stress-test request's callback: it knows which
// request it belongs to, so an outcome delivered through a Pending that was
// recycled (and re-armed for someone else) while still referenced shows up
// as a double fire here, a missing fire there, or a latency its op cannot
// have.
type taggedCompletion struct {
	op       trace.Op
	admitted bool // SubmitTo returned nil (written by the submitter)
	fired    atomic.Int32
	resp     Response
	err      error
}

func (c *taggedCompletion) Complete(resp Response, err error) {
	if c.fired.Add(1) == 1 {
		c.resp, c.err = resp, err
	}
}

// TestCallbackPendingsUnderLifecycleChurn hammers the recycled-Pending path:
// several goroutines submit tagged completions while tenants are drained,
// re-seated by handoff replay and released, and the node is finally drained
// under load. Half the goroutines call SubmitTo; the other half admit
// through a Batch each and flush every few requests, so runs of Pendings
// cross the mailbox and meet the gates and the drain between admission and
// Flush. Every admitted request's completion must fire exactly once, with
// its own outcome; every synchronously rejected one never. Run under -race
// (CI serve-race job).
func TestCallbackPendingsUnderLifecycleChurn(t *testing.T) {
	dev := nand.EvalConfig()
	cfg := Config{
		Device:     dev,
		Options:    ssd.DefaultOptions(),
		Accel:      2000,
		Now:        time.Now,
		QueueDepth: 4,
		QueueLen:   8,
	}
	s := testServer(t, cfg, nil)
	s.Start()

	const workers, perWorker = 4, 1500
	// The shortest service either op can see, for the "own outcome" check.
	minLat := [2]sim.Time{
		trace.Read:  dev.ReadLatency + dev.XferLatency,
		trace.Write: dev.XferLatency + dev.WriteLatency,
	}
	tags := make([][]taggedCompletion, workers)
	var submitted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		tags[w] = make([]taggedCompletion, perWorker)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			submitTo, flush := s.SubmitTo, func() {}
			if w%2 == 1 {
				b := s.NewBatch()
				submitTo, flush = b.SubmitTo, b.Flush
				defer b.Flush()
			}
			for i := range tags[w] {
				if i%(w+3) == 0 {
					flush()
				}
				req := Request{
					Tenant: (w + i) % 4, Op: trace.Op(i % 2),
					Offset: int64(i%256) * page, Size: page,
				}
				c := &tags[w][i]
				c.op = req.Op
				err := submitTo(req, c)
				// Backpressure and a shut gate pass; give them a few turns
				// so most of the load is admitted, not bounced.
				for try := 0; try < 100 && (errors.Is(err, ErrQueueFull) || errors.Is(err, ErrTenantMigrating)); try++ {
					flush()
					runtime.Gosched()
					err = submitTo(req, c)
				}
				switch {
				case err == nil:
					c.admitted = true
				case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantMigrating), errors.Is(err, ErrDraining):
				default:
					t.Errorf("worker %d request %d: unexpected rejection %v", w, i, err)
				}
				submitted.Add(1)
			}
		}(w)
	}

	// Lifecycle churn until three quarters of the load is in, then a
	// whole-node drain under the rest of it.
	for tenant := 0; submitted.Load() < workers*perWorker*3/4; tenant = (tenant + 1) % 4 {
		td, err := s.DrainTenant(tenant)
		if err != nil {
			t.Fatalf("DrainTenant(%d): %v", tenant, err)
		}
		if tenant%2 == 0 {
			// Re-seat a slice of the log (the whole of it would double the
			// log every round).
			if _, err := s.ReplayTenant(tenant, td.Records[:min(64, len(td.Records))]); err != nil {
				t.Fatalf("ReplayTenant(%d): %v", tenant, err)
			}
		} else if err := s.ReleaseTenant(tenant); err != nil {
			t.Fatalf("ReleaseTenant(%d): %v", tenant, err)
		}
	}
	s.Drain()
	wg.Wait() // every admitted request is resolved once its batch is flushed
	if err := s.Err(); err != nil {
		t.Fatalf("node poisoned: %v", err)
	}

	var ok uint64
	for w := range tags {
		for i := range tags[w] {
			c := &tags[w][i]
			fired := c.fired.Load()
			switch {
			case !c.admitted && fired != 0:
				t.Errorf("worker %d request %d: rejected at admission, yet completed %d times", w, i, fired)
			case c.admitted && fired != 1:
				t.Errorf("worker %d request %d: completed %d times, want exactly once", w, i, fired)
			case !c.admitted:
			case c.err == nil:
				ok++
				if c.resp.Latency < minLat[c.op] || c.resp.At < c.resp.Latency {
					t.Errorf("worker %d request %d: op %v answered latency %v at %v: not its own outcome",
						w, i, c.op, c.resp.Latency, c.resp.At)
				}
			case !errors.Is(c.err, ErrDraining) && !errors.Is(c.err, ErrTenantMigrating):
				t.Errorf("worker %d request %d: resolved with %v", w, i, c.err)
			}
		}
	}
	var completed uint64
	for tenant := 0; tenant < 4; tenant++ {
		completed += s.TenantCompleted(tenant)
	}
	if ok == 0 || ok != completed {
		t.Errorf("clients saw %d completions, the node counted %d", ok, completed)
	}
}
