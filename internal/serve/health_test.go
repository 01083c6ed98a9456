package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/trace"
)

// testFaultPlan injects a mid-run die failure plus a read-retry tail — the
// plan every drain-equivalence test below shares between the serving device
// and its batch-replay twin. The plan itself is read-only configuration; the
// per-device runtime state lives behind armFaults, so one pointer can arm
// both devices.
func testFaultPlan() *nand.FaultPlan {
	return &nand.FaultPlan{
		Seed: 7,
		Events: []nand.FaultEvent{
			{Kind: nand.FaultDieFail, At: 50 * sim.Microsecond, Channel: 1, Die: 0},
			{Kind: nand.FaultRetryTail, At: 0, Prob: 0.5},
		},
	}
}

// TestDrainMatchesBatchReplayWithFaults extends the drain-equivalence
// guarantee to a sick device: with a die failing mid-run and reads paying
// retry tails, a graceful drain must still leave the device bit-identical to
// a batch replay of the dispatched requests under the same fault plan.
func TestDrainMatchesBatchReplayWithFaults(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.QueueDepth = 4
	cfg.QueueLen = 8
	cfg.Season = simrun.DefaultSeasoning()
	cfg.Options.FaultPlan = testFaultPlan()
	s := testServer(t, cfg, nil)

	dispatched := []Request{readReq(0, 0), writeReq(0, 1), writeReq(0, 2), readReq(0, 3)}
	var handles []submitted
	for _, req := range dispatched {
		p, err := submit(s, req)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, p)
	}
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

	// The plan actually fired, identically on both devices.
	hs := s.Device().HealthSnapshot()
	if hs.DieFailures != 1 || hs.DeadDieFrac == 0 {
		t.Errorf("die failure missing from the drained device: %+v", hs)
	}
	if rhs := sess.Device().HealthSnapshot(); rhs != hs {
		t.Errorf("replay health %+v != drained health %+v", rhs, hs)
	}
}

// TestDrainTenantMatchesBatchReplayWithFaults: the tenant handoff log stays
// a faithful replay source when the device is failing under the tenant.
func TestDrainTenantMatchesBatchReplayWithFaults(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.QueueDepth = 4
	cfg.QueueLen = 8
	cfg.Season = simrun.DefaultSeasoning()
	cfg.Options.FaultPlan = testFaultPlan()
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
	ctx := context.Background()
	for i, p := range handles {
		if _, err := p.wait(ctx); err != nil {
			t.Errorf("request %d failed across tenant drain: %v", i, err)
		}
	}
	if got := len(td.Records); got != len(reqs) {
		t.Fatalf("handoff log has %d records, want %d", got, len(reqs))
	}
	if td.CompletedReads != 2 || td.CompletedWrites != 2 {
		t.Errorf("completed %d reads / %d writes, want 2/2", td.CompletedReads, td.CompletedWrites)
	}

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

// TestAuditHealthyNode: a fault-free node audits at a perfect score and
// never degrades.
func TestAuditHealthyNode(t *testing.T) {
	clk := newFakeClock()
	s := testServer(t, testConfig(clk), nil)
	defer s.Drain()
	if got := s.Audit(); got != 1.0 {
		t.Errorf("healthy node health score %v, want 1.0", got)
	}
	if s.Degraded() {
		t.Error("healthy node degraded")
	}
	if !s.Ready() {
		t.Error("healthy node not ready")
	}
}

// TestAuditorFlipsDegraded runs the auditor loop against live shards (this
// test is the -race exercise for the sweep): a die failure drops the worst
// shard score below the threshold, the wall-clock auditor notices without
// any explicit Audit call, readiness flips to degraded, and the health
// counters land in /metrics.
func TestAuditorFlipsDegraded(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.Options.FaultPlan = &nand.FaultPlan{
		Seed: 7,
		Events: []nand.FaultEvent{
			{Kind: nand.FaultDieFail, At: sim.Millisecond, Channel: 0, Die: 0},
		},
	}
	cfg.AuditEvery = 2 * time.Millisecond
	// EvalConfig has 16 dies; one failure scores 1 - 1/16 = 0.9375.
	cfg.DegradedScore = 0.95
	var audited []string
	var auditedMu chan struct{} // buffered-1 semaphore: AuditLog may race the test goroutine
	auditedMu = make(chan struct{}, 1)
	auditedMu <- struct{}{}
	cfg.AuditLog = func(format string, args ...interface{}) {
		<-auditedMu
		audited = append(audited, format)
		auditedMu <- struct{}{}
	}
	s := testServer(t, cfg, nil)
	s.Start()
	defer s.Drain()

	var handles []submitted
	for i := int64(0); i < 4; i++ {
		p, err := submit(s, readReq(0, i))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, p)
	}
	// Carry simulated time past the failure; the audit sweep's snapshot
	// advances the engine to the wall target, firing the fault event.
	clk.Advance(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, p := range handles {
		if _, err := p.wait(ctx); err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for !s.Degraded() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !s.Degraded() {
		t.Fatal("auditor never flipped the node degraded")
	}
	if s.Ready() {
		t.Error("degraded node still reports ready")
	}
	if got := s.Audit(); got >= cfg.DegradedScore {
		t.Errorf("health score %v, want below threshold %v", got, cfg.DegradedScore)
	}
	<-auditedMu
	logged := len(audited)
	auditedMu <- struct{}{}
	if logged != 1 {
		t.Errorf("degraded transition logged %d times, want exactly once", logged)
	}

	ts := httptest.NewServer(s.Handler(time.Second))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "degraded") {
		t.Errorf("/readyz body %q does not name the degraded state", body)
	}

	var buf bytes.Buffer
	s.WriteMetrics(&buf)
	metrics := buf.String()
	for _, want := range []string{
		"ssdkeeper_die_failures_total 1",
		"ssdkeeper_degraded 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(metrics, "ssdkeeper_health_score 0.9") {
		t.Errorf("metrics health score not in the degraded band:\n%s", metrics)
	}
}
