package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// occupancy is a tenant's admitted-but-unfinished requests.
func (n *Node) occupancy(tenant int) int64 {
	return n.act.tenants[tenant].occupancy.Load()
}

// A Batch whose node drains between SubmitTo and Flush resolves every
// request it admitted exactly once, with ErrDraining, and gives back the
// admission slots they held.
func TestBatchFlushAfterDrain(t *testing.T) {
	s := testServer(t, testConfig(newFakeClock()), nil)
	b := s.NewBatch()
	tags := make([]taggedCompletion, 12)
	for i := range tags {
		// Several requests per tenant, so the run is longer than its head.
		if err := b.SubmitTo(writeReq(i%4, int64(i)), &tags[i]); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	s.Drain()
	b.Flush()
	for i := range tags {
		c := &tags[i]
		if n := c.fired.Load(); n != 1 || !errors.Is(c.err, ErrDraining) {
			t.Errorf("request %d: completed %d times with %v, want once with ErrDraining", i, n, c.err)
		}
	}
	for tenant := 0; tenant < 4; tenant++ {
		if occ := s.occupancy(tenant); occ != 0 {
			t.Errorf("tenant %d: occupancy %d after the flush, want 0", tenant, occ)
		}
	}
	b.Flush() // nothing left to send or resolve
	for i := range tags {
		if n := tags[i].fired.Load(); n != 1 {
			t.Errorf("request %d: a second Flush fired it again (%d)", i, n)
		}
	}
}

// A DrainTenant between SubmitTo and Flush closes the tenant's gate in the
// actor before the batch arrives: the actor refuses the tenant's requests
// through their Completions with ErrTenantMigrating and serves the rest of
// the batch.
func TestBatchGateClosesBeforeFlush(t *testing.T) {
	clk := newFakeClock()
	s := testServer(t, testConfig(clk), nil)
	defer s.Drain()
	b := s.NewBatch()
	var gated, open [3]taggedCompletion
	for i := range gated {
		if err := b.SubmitTo(writeReq(0, int64(i)), &gated[i]); err != nil {
			t.Fatal(err)
		}
		if err := b.SubmitTo(writeReq(1, int64(i)), &open[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.DrainTenant(0); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	clk.Advance(10 * time.Millisecond)
	s.SimNow() // a barrier behind the batch: every request has resolved
	for i := range gated {
		if c := &gated[i]; c.fired.Load() != 1 || !errors.Is(c.err, ErrTenantMigrating) {
			t.Errorf("gated request %d: completed %d times with %v, want once with ErrTenantMigrating",
				i, c.fired.Load(), c.err)
		}
		if c := &open[i]; c.fired.Load() != 1 || c.err != nil {
			t.Errorf("open request %d: completed %d times with %v, want once served",
				i, c.fired.Load(), c.err)
		}
	}
	if occ := s.occupancy(0); occ != 0 {
		t.Errorf("gated tenant: occupancy %d, want 0", occ)
	}
}

// countingClock is a fakeClock that counts its reads.
type countingClock struct {
	*fakeClock
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return c.fakeClock.Now()
}

// Every request of a Batch arrives at the one stamp the batch read at its
// first admitted request; after a Flush the next request reads a new one.
func TestBatchSharesOneStamp(t *testing.T) {
	clk := &countingClock{fakeClock: newFakeClock()}
	cfg := testConfig(clk.fakeClock)
	cfg.Now = clk.Now
	s := testServer(t, cfg, nil)
	clk.Advance(time.Millisecond)
	stamp := s.wallSim(clk.fakeClock.Now())
	b := s.NewBatch()
	reads := clk.reads.Load()
	cs := make([]submitted, 40)
	for i := range cs {
		cs[i] = make(submitted, 1)
		if err := b.SubmitTo(readReq(i%4, int64(i)), cs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := clk.reads.Load() - reads; got != 1 {
		t.Errorf("a batch of %d read the clock %d times, want once", len(cs), got)
	}
	b.Flush()
	reads = clk.reads.Load()
	cs = append(cs, make(submitted, 1))
	if err := b.SubmitTo(readReq(0, 40), cs[40]); err != nil {
		t.Fatal(err)
	}
	if got := clk.reads.Load() - reads; got != 1 {
		t.Errorf("the first request after a Flush read the clock %d times, want once", got)
	}
	b.Flush()
	clk.Advance(10 * time.Millisecond)
	s.SimNow()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, c := range cs {
		resp, err := c.wait(ctx)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if arrival := resp.At - resp.Latency; arrival != stamp {
			t.Errorf("request %d arrived at %v, want the batch stamp %v", i, arrival, stamp)
		}
	}
	if res := s.Drain(); res.Requests != len(cs) {
		t.Errorf("the device served %d requests, want %d", res.Requests, len(cs))
	}
}
