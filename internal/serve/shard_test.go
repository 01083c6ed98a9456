package serve

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/stats"
	"ssdkeeper/internal/trace"
)

// TestShardIndexGolden pins the routing function: these values are part of
// the wire contract (a client that pre-shards its keyspace relies on them),
// so a change here is a breaking change, not a refactor.
func TestShardIndexGolden(t *testing.T) {
	cases := []struct {
		tenant int
		key    uint64
		shards int
		want   int
	}{
		{0, 0, 2, 1},
		{1, 0, 2, 0},
		{2, 0, 2, 1},
		{3, 0, 2, 0},
		{0, 0, 4, 1},
		{1, 0, 4, 0},
		{2, 0, 4, 3},
		{3, 0, 4, 2},
		{0, 0, 8, 5},
		{1, 0, 8, 4},
		{2, 0, 8, 7},
		{3, 0, 8, 6},
		{0, 1, 4, 0},
		{0, 2, 4, 3},
		{0, 3, 4, 2},
		{0, 7, 4, 2},
		// Degenerate shard counts collapse to shard 0.
		{5, 9, 1, 0},
		{5, 9, 0, 0},
	}
	for _, c := range cases {
		if got := shardIndex(c.tenant, c.key, c.shards); got != c.want {
			t.Errorf("shardIndex(%d, %d, %d) = %d, want %d", c.tenant, c.key, c.shards, got, c.want)
		}
	}
}

// TestShardRoutingStableAcrossRestarts is the restart guarantee: a second
// server built from the same configuration routes every request to the same
// shard, so per-shard device state lines up across daemon restarts.
func TestShardRoutingStableAcrossRestarts(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.ShardCount = 4

	reqs := []Request{
		readReq(0, 0), writeReq(1, 1), readReq(2, 2), writeReq(3, 3),
	}
	for i := uint64(1); i <= 8; i++ {
		r := readReq(0, int64(i))
		r.Key = i
		reqs = append(reqs, r)
	}

	s1 := testServer(t, cfg, nil)
	first := make([]int, len(reqs))
	for i, r := range reqs {
		first[i] = s1.ShardFor(r)
	}
	s1.Drain()

	s2 := testServer(t, cfg, nil)
	defer s2.Drain()
	for i, r := range reqs {
		if got := s2.ShardFor(r); got != first[i] {
			t.Errorf("request %d rerouted after restart: %d then %d", i, first[i], got)
		}
	}

	// Nonzero keys spread one tenant across shards.
	spread := map[int]bool{}
	for _, r := range reqs[4:] {
		spread[s2.ShardFor(r)] = true
	}
	if len(spread) < 2 {
		t.Errorf("8 keys of tenant 0 landed on %d shard(s), want spreading", len(spread))
	}
}

// TestDrainMatchesBatchReplaySharded extends the drain-equivalence guarantee
// to N>1 shards: each shard's final device state equals a batch replay of
// exactly the requests dispatched to that shard, at their admission times.
func TestDrainMatchesBatchReplaySharded(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.ShardCount = 3
	cfg.QueueDepth = 2
	cfg.QueueLen = 4
	cfg.Season = simrun.DefaultSeasoning()
	s := testServer(t, cfg, nil)

	// Four requests per tenant with the clock frozen: per (shard, tenant)
	// the first QueueDepth dispatch at sim time 0, the rest only queue and
	// must leave no trace on that shard's device.
	perShardDispatched := make([]trace.Trace, cfg.ShardCount)
	dispatchedCount := make(map[int]int) // tenant → dispatched so far
	var handles []submitted
	for i := int64(0); i < 4; i++ {
		for tenant := 0; tenant < 4; tenant++ {
			req := writeReq(tenant, i)
			if i%2 == 0 {
				req = readReq(tenant, i)
			}
			p, err := submit(s, req)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, p)
			if dispatchedCount[tenant] < cfg.QueueDepth {
				dispatchedCount[tenant]++
				sh := s.ShardFor(req)
				perShardDispatched[sh] = append(perShardDispatched[sh], req.Record(0))
			}
		}
	}

	s.Drain()
	perShard := s.DrainResults()
	if len(perShard) != cfg.ShardCount {
		t.Fatalf("DrainResults returned %d results, want %d", len(perShard), cfg.ShardCount)
	}
	ctx := context.Background()
	var completed, drained int
	for _, p := range handles {
		switch _, err := p.wait(ctx); {
		case err == nil:
			completed++
		case errors.Is(err, ErrDraining):
			drained++
		default:
			t.Errorf("unexpected wait error: %v", err)
		}
	}
	if completed != 8 || drained != 8 {
		t.Errorf("completed=%d drained=%d, want 8 and 8", completed, drained)
	}

	for sh, tr := range perShardDispatched {
		runner := simrun.NewInstrumentedRunner(cfg.Device)
		sess, err := runner.NewSession(simrun.Config{
			Device: cfg.Device, Options: cfg.Options, Season: cfg.Season,
		})
		if err != nil {
			t.Fatal(err)
		}
		replayRes, err := sess.Run(ctx, tr)
		if err != nil {
			t.Fatal(err)
		}
		got := perShard[sh]
		if got.Makespan != replayRes.Makespan {
			t.Errorf("shard %d: makespan %v != replay %v", sh, got.Makespan, replayRes.Makespan)
		}
		if got.FTL != replayRes.FTL {
			t.Errorf("shard %d: FTL counters %+v != replay %+v", sh, got.FTL, replayRes.FTL)
		}
		if !reflect.DeepEqual(got.Device, replayRes.Device) {
			t.Errorf("shard %d: device latency %+v != replay %+v", sh, got.Device, replayRes.Device)
		}
		if got.Conflicts != replayRes.Conflicts {
			t.Errorf("shard %d: conflicts %d != replay %d", sh, got.Conflicts, replayRes.Conflicts)
		}
	}
}

// TestDrainShardedFairnessMatchesCollector pins the merged Fairness to the
// definition a single shard's collector reports: Jain's index over each
// tenant's mean read plus mean write latency. Tenant 0 (shard 1) sends one
// read and tenant 1 (shard 0) two, on separate channels, so both see the same
// mean and the index is 1; weighting by request count would say 0.9.
func TestDrainShardedFairnessMatchesCollector(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.ShardCount = 2
	s := testServer(t, cfg, nil)
	for _, req := range []Request{readReq(0, 0), readReq(1, 0), readReq(1, 1)} {
		if _, err := submit(s, req); err != nil {
			t.Fatal(err)
		}
	}
	res := s.Drain()
	if len(res.PerTenant) != 2 {
		t.Fatalf("merged result has %d tenants, want 2", len(res.PerTenant))
	}
	t0, t1 := res.PerTenant[0].Total(), res.PerTenant[1].Total()
	if t0 != t1 {
		t.Fatalf("tenant totals %v and %v differ; the case needs equal means", t0, t1)
	}
	if want := stats.JainIndex([]float64{t0, t1}); res.Fairness != want {
		t.Errorf("merged Fairness = %v, want %v", res.Fairness, want)
	}
}

// TestShardedBackpressureIndependent verifies admission capacity is per
// (shard, tenant): filling one tenant's shard leaves the others admissible.
func TestShardedBackpressureIndependent(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.ShardCount = 4
	cfg.QueueDepth = 1
	cfg.QueueLen = 1
	s := testServer(t, cfg, nil)
	defer s.Drain()

	for i := int64(0); i < 2; i++ {
		if _, err := submit(s, writeReq(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := submit(s, writeReq(0, 2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overload error = %v, want ErrQueueFull", err)
	}
	for tenant := 1; tenant < 4; tenant++ {
		if _, err := submit(s, writeReq(tenant, 0)); err != nil {
			t.Errorf("tenant %d rejected while tenant 0 full: %v", tenant, err)
		}
	}
	// A spread key routes tenant 0 to a different shard with fresh capacity.
	spread := writeReq(0, 3)
	for key := uint64(1); key < 16; key++ {
		spread.Key = key
		if s.ShardFor(spread) != s.ShardFor(writeReq(0, 3)) {
			break
		}
	}
	if _, err := submit(s, spread); err != nil {
		t.Errorf("spread-key submit rejected: %v", err)
	}
}

// TestShardedConcurrentServe is the race detector's workout: many client
// goroutines submit and wait against a started (paced) multi-shard server
// while metrics scrapes and time barriers run concurrently, then the server
// drains under fire.
func TestShardedConcurrentServe(t *testing.T) {
	cfg := Config{
		Device:     nand.EvalConfig(),
		Options:    ssd.DefaultOptions(),
		Accel:      1000,
		Now:        time.Now,
		ShardCount: 4,
	}
	s := testServer(t, cfg, nil)
	s.Start()

	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	var okCount, rejCount, canceledCount int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			for i := 0; i < perWorker; i++ {
				req := writeReq(w%4, int64(i))
				req.Key = uint64(w*perWorker + i + 1)
				_, err := submitWait(ctx, s, req)
				mu.Lock()
				switch {
				case err == nil:
					okCount++
				case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
					rejCount++
				case errors.Is(err, context.DeadlineExceeded):
					canceledCount++
				default:
					t.Errorf("worker %d: unexpected error %v", w, err)
				}
				mu.Unlock()
			}
		}(w)
	}
	// Concurrent scrapers exercise the lock-free metrics path.
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			var sb strings.Builder
			s.WriteMetrics(&sb)
			s.SimNow()
		}
	}()
	wg.Wait()
	close(stopScrape)
	scrapeWG.Wait()

	res := s.Drain()
	if err := s.Err(); err != nil {
		t.Fatalf("server poisoned: %v", err)
	}
	if okCount == 0 {
		t.Fatal("no request completed")
	}
	if got := okCount + rejCount + canceledCount; got != workers*perWorker {
		t.Errorf("accounted %d outcomes, want %d", got, workers*perWorker)
	}
	// A canceled request may still have been dispatched (and completed on
	// the device), so equality only holds when nothing was canceled.
	if canceledCount == 0 && res.Requests != int(okCount) {
		t.Errorf("merged result has %d requests, completions say %d", res.Requests, okCount)
	}
}

// TestMetricsShardedSeries checks the per-shard series appear (and sum
// consistently) when more than one shard serves.
func TestMetricsShardedSeries(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.ShardCount = 2
	s := testServer(t, cfg, nil)
	defer s.Drain()

	if _, err := submit(s, readReq(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := submit(s, writeReq(1, 0)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	s.SimNow()

	var buf strings.Builder
	s.WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		"ssdkeeper_shards 2",
		`ssdkeeper_shard_sim_seconds{shard="0"}`,
		`ssdkeeper_shard_sim_seconds{shard="1"}`,
		`ssdkeeper_admitted_total{tenant="0",op="read"} 1`,
		`ssdkeeper_completed_total{tenant="1",op="write"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestPendingFIFOBoundedByLiveEntries pins the admission queue's memory
// contract: however many requests pass through, the backing array is sized by
// the entries queued at once, and nothing popped stays reachable from it.
func TestPendingFIFOBoundedByLiveEntries(t *testing.T) {
	const maxLive = 64
	var q pendingFIFO
	rng := rand.New(rand.NewSource(5))
	var want []*Pending // reference queue
	for i := 0; i < 200000; i++ {
		switch {
		case len(want) == 0 || (len(want) < maxLive && rng.Intn(2) == 0):
			p := &Pending{}
			q.push(p)
			want = append(want, p)
		default:
			if got := q.pop(); got != want[0] {
				t.Fatalf("step %d: pop returned the wrong entry", i)
			}
			want = want[1:]
		}
		if q.len() != len(want) {
			t.Fatalf("step %d: len %d, want %d", i, q.len(), len(want))
		}
	}
	for i, p := range q.live() {
		if p != want[i] {
			t.Fatalf("live()[%d] differs from the reference queue", i)
		}
	}
	if c := cap(q.buf); c > 4*maxLive {
		t.Errorf("backing array grew to %d slots for at most %d live entries", c, maxLive)
	}
	live := map[*Pending]bool{}
	for _, p := range want {
		live[p] = true
	}
	for i, p := range q.buf[:cap(q.buf)] {
		if p != nil && !live[p] {
			t.Errorf("slot %d still references a dequeued request", i)
		}
	}
}

// The pacer sleeps only for pending work: an engine event, or a keeper
// epoch boundary whose window saw arrivals. With neither it arms no timer
// and the shard waits on its mailbox alone, so an idle node never wakes.
func TestPacerSleepsOnlyForPendingWork(t *testing.T) {
	clk := newFakeClock()
	kCfg := keeperConfig()
	k, err := keeper.New(kCfg, forcedModel(t, len(kCfg.Strategies), 1))
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, testConfig(clk), k)
	defer s.Drain()
	sd := s.shards[0]
	// SimNow is a mailbox round trip: after it the shard touches nothing
	// until the next message, so its pacing state can be read here.
	wake := func() (time.Duration, bool) {
		s.SimNow()
		return sd.nextWake()
	}
	if d, ok := wake(); ok {
		t.Fatalf("idle shard sleeps %v, want no timer", d)
	}
	c, err := submit(s, writeReq(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wake(); !ok {
		t.Fatal("a request in flight armed no timer")
	}
	clk.Advance(10 * time.Millisecond)
	s.SimNow()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.wait(ctx); err != nil {
		t.Fatal(err)
	}
	// The device is idle, but the window holds an arrival: sleep until the
	// epoch boundary (Accel 1: 50 ms of sim time is 50 ms of wall time).
	if d, ok := wake(); !ok || d != 40*time.Millisecond {
		t.Fatalf("after the completion the shard sleeps %v (armed %v), want 40ms to the epoch", d, ok)
	}
	clk.Advance(45 * time.Millisecond)
	if d, ok := wake(); ok {
		t.Fatalf("after the epoch the shard sleeps %v, want no timer", d)
	}
	if n := sd.ctrl.SwitchCount(); n != 1 {
		t.Fatalf("%d switches, want the one epoch", n)
	}
}
