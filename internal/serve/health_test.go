package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
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

// TestHealthJudgedOnRead: health is judged by the reads that report it. A
// started node whose device loses a die runs no goroutine besides its shard;
// once simulated time passes the failure, the very first Ready() is false,
// /readyz answers 503 naming the state, ssdkeeper_degraded reads 1, and the
// flip logs exactly once however many reads follow. The same node with a
// zero DegradedScore stays ready through the same failure.
func TestHealthJudgedOnRead(t *testing.T) {
	for _, threshold := range []float64{0.95, 0} {
		t.Run(fmt.Sprint(threshold), func(t *testing.T) {
			clk := newFakeClock()
			cfg := testConfig(clk)
			cfg.Options.FaultPlan = &nand.FaultPlan{
				Seed: 7,
				Events: []nand.FaultEvent{
					{Kind: nand.FaultDieFail, At: sim.Millisecond, Channel: 0, Die: 0},
				},
			}
			// EvalConfig has 16 dies; one failure scores 1 - 1/16 = 0.9375.
			cfg.DegradedScore = threshold
			var logged atomic.Int32
			cfg.AuditLog = func(string, ...any) { logged.Add(1) }

			before := runtime.NumGoroutine()
			s := testServer(t, cfg, nil)
			s.Start()
			defer s.Drain()
			// Goroutines left over from earlier tests can only exit meanwhile.
			if extra := runtime.NumGoroutine() - before; extra > 1 {
				t.Errorf("started node runs %d goroutines, want at most its shard's one", extra)
			}
			if !s.Ready() {
				t.Fatal("node not ready before the die failure")
			}

			clk.Advance(100 * time.Millisecond) // 100 simulated ms: past the failure
			degrade := threshold > 0
			if got := s.Ready(); got == degrade {
				t.Fatalf("first Ready() after the failure = %v, want %v", got, !degrade)
			}

			ts := httptest.NewServer(s.Handler(time.Second))
			defer ts.Close()
			resp, err := http.Get(ts.URL + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			wantCode := http.StatusOK
			if degrade {
				wantCode = http.StatusServiceUnavailable
				if !strings.Contains(string(body), "degraded") {
					t.Errorf("/readyz body %q does not name the degraded state", body)
				}
			}
			if resp.StatusCode != wantCode {
				t.Errorf("/readyz status %d, want %d", resp.StatusCode, wantCode)
			}

			var buf bytes.Buffer
			s.WriteMetrics(&buf)
			metrics := buf.String()
			wantDegraded := "ssdkeeper_degraded 0"
			if degrade {
				wantDegraded = "ssdkeeper_degraded 1"
			}
			for _, want := range []string{"ssdkeeper_die_failures_total 1", wantDegraded} {
				if !strings.Contains(metrics, want) {
					t.Errorf("metrics missing %q", want)
				}
			}
			if !strings.Contains(metrics, "ssdkeeper_health_score 0.9") {
				t.Errorf("metrics health score not in the one-dead-die band:\n%s", metrics)
			}

			for i := 0; i < 3; i++ {
				if got := s.Audit(); got >= 0.95 {
					t.Errorf("health score %v, want one dead die's 0.9375", got)
				}
				if s.Degraded() != degrade || s.Ready() == degrade {
					t.Errorf("read %d: degraded %v ready %v, want degraded %v", i, s.Degraded(), s.Ready(), degrade)
				}
			}
			wantLogs := int32(0)
			if degrade {
				wantLogs = 1
			}
			if got := logged.Load(); got != wantLogs {
				t.Errorf("degraded transition logged %d times, want %d", got, wantLogs)
			}
		})
	}
}
