package serve

import (
	"context"
	"errors"
	"math"
	"net/http"
	"reflect"
	"testing"
	"unsafe"

	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/trace"
)

// TestDrainTenantMatchesBatchReplay is the tenant-granular face of the
// drain-equivalence guarantee: after DrainTenant, the returned record log,
// replayed as a batch at its recorded arrival times on an identically
// seasoned fresh device, reproduces the tenant's device footprint. With a
// single active tenant the whole node's final drain state must therefore
// equal the batch replay of exactly the handoff log.
func TestDrainTenantMatchesBatchReplay(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.QueueDepth = 4
	cfg.QueueLen = 8
	cfg.Season = simrun.DefaultSeasoning()
	s := testServer(t, cfg, nil)

	reqs := []Request{readReq(1, 0), writeReq(1, 1), writeReq(1, 2), readReq(1, 3)}
	var handles []submitted
	for _, req := range reqs {
		p, err := submit(s, req)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, p)
	}

	td, err := s.DrainTenant(1)
	if err != nil {
		t.Fatal(err)
	}
	// The quiesce completes everything admitted: no waiter may see an error.
	ctx := context.Background()
	for i, p := range handles {
		if _, err := p.wait(ctx); err != nil {
			t.Errorf("request %d failed across tenant drain: %v", i, err)
		}
	}
	if got := len(td.Records); got != len(reqs) {
		t.Fatalf("handoff log has %d records, want %d", got, len(reqs))
	}
	for i, rec := range td.Records {
		want := reqs[i].Record(rec.Time)
		if rec != want {
			t.Errorf("record %d = %+v, want %+v", i, rec, want)
		}
	}
	if td.CompletedReads != 2 || td.CompletedWrites != 2 {
		t.Errorf("completed %d reads / %d writes, want 2/2", td.CompletedReads, td.CompletedWrites)
	}
	if td.Replayed != 0 {
		t.Errorf("replayed = %d on a never-migrated tenant", td.Replayed)
	}
	// Every control round trip buffers one actorReply in its reply channel:
	// the drain summary carries counts, not latency histograms.
	if size := unsafe.Sizeof(actorReply{}); size > 512 {
		t.Errorf("actorReply is %d B, want <= 512", size)
	}

	// Tenant 1 only ever touched the device, so the node's whole-drain
	// state must equal a batch replay of the handoff log alone.
	drainRes := s.Drain()
	runner := simrun.NewRunner(simrun.WithProbe(simrun.NewCounterProbe(cfg.Device)))
	sess, err := runner.NewSession(simrun.Config{
		Device: cfg.Device, Options: cfg.Options, Season: cfg.Season,
	})
	if err != nil {
		t.Fatal(err)
	}
	replayRes, err := sess.Run(context.Background(), trace.Trace(td.Records))
	if err != nil {
		t.Fatal(err)
	}
	if drainRes.Makespan != replayRes.Makespan {
		t.Errorf("makespan %v != replay %v", drainRes.Makespan, replayRes.Makespan)
	}
	if drainRes.FTL != replayRes.FTL {
		t.Errorf("FTL counters %+v != replay %+v", drainRes.FTL, replayRes.FTL)
	}
	if !reflect.DeepEqual(drainRes.Device, replayRes.Device) {
		t.Errorf("device latency %+v != replay %+v", drainRes.Device, replayRes.Device)
	}
	if drainRes.Conflicts != replayRes.Conflicts {
		t.Errorf("conflicts %d != replay %d", drainRes.Conflicts, replayRes.Conflicts)
	}
}

// TestDrainTenantIsolatesTenant: draining tenant 1 gates exactly tenant 1 —
// its submissions reject with ErrTenantMigrating, other tenants keep
// serving, readiness reflects the parked tenant, and ReleaseTenant restores
// everything.
func TestDrainTenantIsolatesTenant(t *testing.T) {
	clk := newFakeClock()
	s := testServer(t, testConfig(clk), nil)
	defer s.Drain()

	if !s.Ready() {
		t.Fatal("fresh node not ready")
	}
	if _, err := submit(s, readReq(1, 0)); err != nil {
		t.Fatal(err)
	}
	td, err := s.DrainTenant(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Records) != 1 {
		t.Fatalf("handoff log has %d records, want 1", len(td.Records))
	}
	if !s.TenantParked(1) {
		t.Error("tenant 1 not parked after DrainTenant")
	}
	if s.Ready() {
		t.Error("node ready with a parked tenant")
	}
	if _, err := submit(s, readReq(1, 1)); !errors.Is(err, ErrTenantMigrating) {
		t.Errorf("parked tenant admission error = %v, want ErrTenantMigrating", err)
	}
	if _, err := s.DrainTenant(1); !errors.Is(err, ErrTenantMigrating) {
		t.Errorf("second DrainTenant error = %v, want ErrTenantMigrating", err)
	}
	// Unrelated tenants are untouched.
	p, err := submit(s, readReq(0, 0))
	if err != nil {
		t.Fatalf("tenant 0 rejected during tenant 1 drain: %v", err)
	}
	_ = p

	if err := s.ReleaseTenant(1); err != nil {
		t.Fatal(err)
	}
	if !s.Ready() {
		t.Error("node not ready after release")
	}
	if _, err := submit(s, readReq(1, 2)); err != nil {
		t.Errorf("released tenant rejected: %v", err)
	}
	if err := s.ReleaseTenant(1); err == nil {
		t.Error("releasing a non-parked tenant succeeded")
	}
}

// TestTenantHandoffPreservesReplayInvariant walks the full migration data
// path: drain on a source node, replay on a target node, serve live traffic
// on the target, then verify the invariant holds on the target too — its
// final drain state equals a batch replay of its own per-tenant log (the
// replayed handoff records at their replay arrivals plus the live ones).
func TestTenantHandoffPreservesReplayInvariant(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.QueueDepth = 4
	cfg.QueueLen = 8
	cfg.Season = simrun.DefaultSeasoning()

	source := testServer(t, cfg, nil)
	for _, req := range []Request{writeReq(1, 0), readReq(1, 1), writeReq(1, 2)} {
		if _, err := submit(source, req); err != nil {
			t.Fatal(err)
		}
	}
	td, err := source.DrainTenant(1)
	if err != nil {
		t.Fatal(err)
	}
	source.Drain()

	target := testServer(t, cfg, nil)
	done, err := target.ReplayTenant(1, td.Records)
	if err != nil {
		t.Fatal(err)
	}
	if done != len(td.Records) {
		t.Fatalf("replayed %d of %d records", done, len(td.Records))
	}
	if !target.Ready() {
		t.Error("target not ready after handoff completed")
	}

	// Live traffic lands on the migrated tenant's new home.
	live := []Request{readReq(1, 3), writeReq(1, 4)}
	ctx := context.Background()
	for _, req := range live {
		p, err := submit(target, req)
		if err != nil {
			t.Fatalf("live submission after handoff: %v", err)
		}
		_ = p
		_ = ctx
	}

	td2, err := target.DrainTenant(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(td2.Records), len(td.Records)+len(live); got != want {
		t.Fatalf("target log has %d records, want %d (replayed + live)", got, want)
	}
	if td2.Replayed != uint64(len(td.Records)) {
		t.Errorf("target replayed = %d, want %d", td2.Replayed, len(td.Records))
	}
	// Client completions on the target count only the live requests: the
	// replay produced none, so nothing is double-counted across nodes.
	if got := td2.CompletedReads + td2.CompletedWrites; got != uint64(len(live)) {
		t.Errorf("target completed %d client requests, want %d", got, len(live))
	}

	drainRes := target.Drain()
	runner := simrun.NewRunner(simrun.WithProbe(simrun.NewCounterProbe(cfg.Device)))
	sess, err := runner.NewSession(simrun.Config{
		Device: cfg.Device, Options: cfg.Options, Season: cfg.Season,
	})
	if err != nil {
		t.Fatal(err)
	}
	replayRes, err := sess.Run(context.Background(), trace.Trace(td2.Records))
	if err != nil {
		t.Fatal(err)
	}
	if drainRes.Makespan != replayRes.Makespan {
		t.Errorf("makespan %v != replay %v", drainRes.Makespan, replayRes.Makespan)
	}
	if drainRes.FTL != replayRes.FTL {
		t.Errorf("FTL counters %+v != replay %+v", drainRes.FTL, replayRes.FTL)
	}
	if !reflect.DeepEqual(drainRes.Device, replayRes.Device) {
		t.Errorf("device latency %+v != replay %+v", drainRes.Device, replayRes.Device)
	}
	if drainRes.Conflicts != replayRes.Conflicts {
		t.Errorf("conflicts %d != replay %d", drainRes.Conflicts, replayRes.Conflicts)
	}
}

// TestReplayTenantRefusesBadRecords: handoff records are outside input. One
// the device would refuse must be turned away before anything is replayed —
// 400 over HTTP — leaving the node healthy and the tenant's gate as it was,
// not poisoning the node mid-replay.
func TestReplayTenantRefusesBadRecords(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	good := writeReq(1, 0).Record(0)
	bad := map[string]trace.Record{
		"zero size":       {Op: trace.Read, Offset: 0, Size: 0},
		"negative offset": {Op: trace.Read, Offset: -page, Size: page},
		"past MaxBytes":   {Op: trace.Write, Offset: 64 << 20, Size: page},
		"huge offset":     {Op: trace.Read, Offset: math.MaxInt64 - 100, Size: page},
		"oversized":       {Op: trace.Write, Offset: 0, Size: maxRequestBytes + 1},
		"unknown op":      {Op: trace.Op(7), Offset: 0, Size: page},
	}
	for name, rec := range bad {
		s := testServer(t, cfg, nil)
		done, err := s.ReplayTenant(1, []trace.Record{good, rec, good})
		if !errors.Is(err, ErrBadHandoff) || done != 0 {
			t.Errorf("%s: replayed %d, err %v; want 0, ErrBadHandoff", name, done, err)
		}
		if err := s.Err(); err != nil {
			t.Errorf("%s: node poisoned: %v", name, err)
		}
		if !s.Ready() || s.TenantParked(1) {
			t.Errorf("%s: a refused handoff moved the tenant's gate", name)
		}
		if _, err := submit(s, readReq(1, 0)); err != nil {
			t.Errorf("%s: tenant rejected after a refused handoff: %v", name, err)
		}
		if res := s.Drain(); res.Requests != 1 {
			t.Errorf("%s: device saw %d requests, want only the live one", name, res.Requests)
		}
	}

	// A parked tenant stays parked, and the HTTP surface answers 400.
	s := testServer(t, cfg, nil)
	defer s.Drain()
	if _, err := s.DrainTenant(1); err != nil {
		t.Fatal(err)
	}
	body := handoffBody(t, []trace.Record{{Time: 0, Tenant: 1, Op: trace.Read, Offset: -1, Size: page}})
	rr := postTenant(s, "handoff", 1, body)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("bad handoff answered %d, want 400: %s", rr.Code, rr.Body)
	}
	if !s.TenantParked(1) || s.Err() != nil {
		t.Errorf("after a refused handoff: parked %v, err %v; want parked, healthy", s.TenantParked(1), s.Err())
	}
}
