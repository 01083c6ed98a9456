package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/nn"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
)

// fakeClock is a manually advanced wall clock: with it, pacing is a pure
// function of the test's Advance calls and every run is deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testConfig(clk *fakeClock) Config {
	return Config{
		Device:  nand.EvalConfig(),
		Options: ssd.DefaultOptions(),
		Now:     clk.Now,
	}
}

// testServer builds an un-started server (tests advance the clock by hand).
func testServer(t *testing.T, cfg Config, k *keeper.Keeper) *Server {
	t.Helper()
	s, err := New(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const page = 16 * 1024 // EvalConfig page size

func readReq(tenant int, pageNo int64) Request {
	return Request{Tenant: tenant, Op: trace.Read, Offset: pageNo * page, Size: page}
}

func writeReq(tenant int, pageNo int64) Request {
	return Request{Tenant: tenant, Op: trace.Write, Offset: pageNo * page, Size: page}
}

func TestNewRejectsBadConfig(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.Accel = -1
	if _, err := New(cfg, nil); err == nil {
		t.Error("negative accel accepted")
	}
	cfg = testConfig(clk)
	cfg.QueueLen = -1
	if _, err := New(cfg, nil); err == nil {
		t.Error("negative queue length accepted")
	}
	cfg = testConfig(clk)
	cfg.MaxBytes = 1 << 50
	if _, err := New(cfg, nil); err == nil {
		t.Error("address space beyond the FTL's accepted")
	}
	cfg = testConfig(clk)
	cfg.Tenants = 1000000
	if _, err := New(cfg, nil); err == nil {
		t.Error("tenant space beyond the FTL's accepted")
	}
	cfg = testConfig(clk)
	cfg.Device.Channels = 0
	if _, err := New(cfg, nil); err == nil {
		t.Error("invalid device geometry accepted")
	}
}

func TestNewRejectsKeeperGeometryMismatch(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	kCfg := keeperConfig()
	kCfg.Device.ChipsPerChannel = 4
	k, err := keeper.New(kCfg, forcedModel(t, len(kCfg.Strategies), 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg, k); err == nil {
		t.Error("keeper with different device geometry accepted")
	}
}

func TestSubmitCompletesWithClockAdvance(t *testing.T) {
	clk := newFakeClock()
	s := testServer(t, testConfig(clk), nil)
	defer s.Drain()

	p, err := submit(s, readReq(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(100 * time.Millisecond)
	if now := s.SimNow(); now != 100*sim.Millisecond {
		t.Errorf("sim time %v after 100ms wall at accel 1, want 100ms", now)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := p.wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Latency <= 0 {
		t.Errorf("latency %v, want > 0", resp.Latency)
	}
	if resp.At <= 0 || resp.At > 100*sim.Millisecond {
		t.Errorf("completion at %v, want within the advanced window", resp.At)
	}
}

func TestAccelScalesSimTime(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.Accel = 8
	s := testServer(t, cfg, nil)
	defer s.Drain()
	clk.Advance(10 * time.Millisecond)
	if now := s.SimNow(); now != 80*sim.Millisecond {
		t.Errorf("sim time %v after 10ms wall at accel 8, want 80ms", now)
	}
}

func TestValidationRejects(t *testing.T) {
	clk := newFakeClock()
	s := testServer(t, testConfig(clk), nil)
	defer s.Drain()
	bad := []Request{
		{Tenant: -1, Op: trace.Read, Size: page},
		{Tenant: 99, Op: trace.Read, Size: page},
		{Tenant: 0, Op: trace.Read, Size: 0},
		{Tenant: 0, Op: trace.Read, Size: maxRequestBytes + 1},
		{Tenant: 0, Op: trace.Read, Offset: -page, Size: page},
		{Tenant: 0, Op: trace.Read, Offset: 64 << 20, Size: page},
	}
	for i, req := range bad {
		if _, err := submit(s, req); err == nil {
			t.Errorf("bad request %d accepted: %+v", i, req)
		}
	}
	var buf strings.Builder
	s.WriteMetrics(&buf)
	if want := fmt.Sprintf(`reason="invalid"} %d`, len(bad)); !strings.Contains(buf.String(), want) {
		t.Errorf("metrics missing %q", want)
	}
}

func TestBackpressurePerTenant(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.QueueDepth = 2
	cfg.QueueLen = 2
	s := testServer(t, cfg, nil)

	// The clock never advances, so nothing completes: tenant 0's capacity is
	// exactly QueueDepth in-flight + QueueLen queued.
	var accepted []submitted
	for i := 0; i < 4; i++ {
		p, err := submit(s, writeReq(0, int64(i)))
		if err != nil {
			t.Fatalf("request %d rejected: %v", i, err)
		}
		accepted = append(accepted, p)
	}
	if _, err := submit(s, writeReq(0, 4)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overload error = %v, want ErrQueueFull", err)
	}
	// Backpressure is per tenant: tenant 1 is still admissible.
	p1, err := submit(s, writeReq(1, 0))
	if err != nil {
		t.Fatalf("tenant 1 rejected while tenant 0 is full: %v", err)
	}
	accepted = append(accepted, p1)

	// Drain answers everything: in-flight requests complete, queued ones are
	// rejected with ErrDraining.
	s.Drain()
	ctx := context.Background()
	var completed, drained int
	for _, p := range accepted {
		_, err := p.wait(ctx)
		switch {
		case err == nil:
			completed++
		case errors.Is(err, ErrDraining):
			drained++
		default:
			t.Errorf("unexpected wait error: %v", err)
		}
	}
	// Tenant 0: 2 in flight + 2 queued; tenant 1: 1 in flight.
	if completed != 3 || drained != 2 {
		t.Errorf("completed=%d drained=%d, want 3 and 2", completed, drained)
	}
	if _, err := submit(s, writeReq(1, 1)); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit error = %v, want ErrDraining", err)
	}
}

// TestDrainMatchesBatchReplay is the drain-equivalence guarantee: after a
// graceful drain, the device's final state equals a batch replay of exactly
// the dispatched requests at their admission times. Queued-but-undispatched
// requests were rejected and must leave no trace on the device.
func TestDrainMatchesBatchReplay(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.QueueDepth = 4
	cfg.QueueLen = 8
	cfg.Season = simrun.DefaultSeasoning()
	s := testServer(t, cfg, nil)

	// Phase 1: four requests dispatched immediately at sim time 0.
	dispatched := []Request{readReq(0, 0), writeReq(0, 1), writeReq(0, 2), readReq(0, 3)}
	var handles []submitted
	for _, req := range dispatched {
		p, err := submit(s, req)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, p)
	}
	// Phase 2: with the clock frozen nothing completes, so four more only
	// queue; they must not reach the device.
	for i := int64(4); i < 8; i++ {
		p, err := submit(s, writeReq(0, i))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, p)
	}

	drainRes := s.Drain()
	ctx := context.Background()
	for i, p := range handles {
		_, err := p.wait(ctx)
		if i < 4 && err != nil {
			t.Errorf("dispatched request %d failed: %v", i, err)
		}
		if i >= 4 && !errors.Is(err, ErrDraining) {
			t.Errorf("queued request %d error = %v, want ErrDraining", i, err)
		}
	}

	// Batch replay of the dispatched four at their admission times on an
	// identically seasoned fresh device.
	var tr trace.Trace
	for _, req := range dispatched {
		tr = append(tr, req.Record(0))
	}
	runner := simrun.NewRunner(simrun.WithProbe(simrun.NewCounterProbe(cfg.Device)))
	sess, err := runner.NewSession(simrun.Config{
		Device: cfg.Device, Options: cfg.Options, Season: cfg.Season,
	})
	if err != nil {
		t.Fatal(err)
	}
	replayRes, err := sess.Run(context.Background(), tr)
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

func TestDrainIdempotent(t *testing.T) {
	clk := newFakeClock()
	s := testServer(t, testConfig(clk), nil)
	s.Start() // exercise pacer shutdown too
	if _, err := submit(s, readReq(0, 0)); err != nil {
		t.Fatal(err)
	}
	first := s.Drain()
	second := s.Drain()
	if first.Makespan != second.Makespan || first.FTL != second.FTL {
		t.Errorf("second drain snapshot differs: %+v vs %+v", first, second)
	}
	if !s.Draining() {
		t.Error("Draining() false after Drain")
	}
}

// keeperConfig mirrors the keeper package's test configuration.
func keeperConfig() keeper.Config {
	return keeper.Config{
		Device:  nand.EvalConfig(),
		Options: ssd.DefaultOptions(),
		Strategies: []alloc.Strategy{
			{Kind: alloc.Shared},
			{Kind: alloc.Isolated},
			{Kind: alloc.TwoGroup, WriteChannels: 6},
		},
		SaturationIOPS: 16000,
		Window:         50 * sim.Millisecond,
		AdaptEvery:     50 * sim.Millisecond,
	}
}

// forcedModel always predicts the given class (output bias driven high).
func forcedModel(t testing.TB, classes, class int) *nn.Network {
	t.Helper()
	net, err := nn.NewMLP([]int{features.Dim, 8, classes}, nn.Logistic{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	out := net.Layers[len(net.Layers)-1]
	for i := range out.W {
		out.W[i] = 0
	}
	for i := range out.B {
		out.B[i] = 0
	}
	out.B[class] = 100
	return net
}

// TestOnlineKeeperEpochFires is the tentpole behavior: live arrivals feed
// the sliding-window collector, and once the window elapses in paced
// simulated time the keeper re-binds channels online.
func TestOnlineKeeperEpochFires(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	kCfg := keeperConfig()
	k, err := keeper.New(kCfg, forcedModel(t, len(kCfg.Strategies), 1))
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, cfg, k)
	defer s.Drain()

	// 40 requests across all four tenants over the first 40ms of sim time.
	for i := 0; i < 40; i++ {
		req := readReq(i%4, int64(i))
		if i%3 == 0 {
			req.Op = trace.Write
		}
		if _, err := submit(s, req); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Millisecond)
	}
	if got := s.Controller().SwitchCount(); got != 0 {
		t.Fatalf("switched %d times before the window elapsed", got)
	}
	// Cross the 50ms window; the pure clock tick (no arrival) must fire the
	// adaptation epoch.
	clk.Advance(20 * time.Millisecond)
	s.SimNow()
	if got := s.Controller().SwitchCount(); got != 1 {
		t.Fatalf("switches after window = %d, want 1", got)
	}
	sw, ok := s.Controller().LastSwitch()
	if !ok || sw.Index != 1 {
		t.Errorf("last switch = %+v (ok=%v), want forced class 1", sw, ok)
	}
	if sw.At != kCfg.Window {
		t.Errorf("switch at %v, want %v", sw.At, kCfg.Window)
	}
	// Idle windows do not re-bind: advancing through two empty periods
	// leaves the switch count alone.
	clk.Advance(100 * time.Millisecond)
	s.SimNow()
	if got := s.Controller().SwitchCount(); got != 1 {
		t.Errorf("switches after idle periods = %d, want still 1", got)
	}
	// New traffic in the current window makes the next boundary fire again.
	for i := 0; i < 8; i++ {
		if _, err := submit(s, writeReq(i%4, int64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(50 * time.Millisecond)
	s.SimNow()
	if got := s.Controller().SwitchCount(); got != 2 {
		t.Errorf("switches after traffic resumed = %d, want 2", got)
	}

	var buf strings.Builder
	s.WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		"ssdkeeper_keeper_switches_total 2",
		`ssdkeeper_keeper_strategy{name="Isolated"}`,
		"ssdkeeper_keeper_last_switch_sim_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestMetricsRendering(t *testing.T) {
	clk := newFakeClock()
	s := testServer(t, testConfig(clk), nil)

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
		"ssdkeeper_up 1",
		"ssdkeeper_sim_seconds 1",
		`ssdkeeper_admitted_total{tenant="0",op="read"} 1`,
		`ssdkeeper_completed_total{tenant="1",op="write"} 1`,
		`ssdkeeper_rejected_total{reason="queue_full"} 0`,
		`ssdkeeper_latency_seconds{tenant="0",op="read",quantile="0.99"}`,
		`ssdkeeper_sim_counter{name="sim.events"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	s.Drain()
	buf.Reset()
	s.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), "ssdkeeper_up 0") {
		t.Error("draining server still reports up")
	}
}
