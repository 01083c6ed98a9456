package simrun_test

// External test package: workload imports simrun, so these tests use the
// same entry points production callers do (workload.MixSpec for traffic).

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/ftl"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
	"ssdkeeper/internal/workload"
)

func testTrace(t *testing.T, cfg nand.Config, requests int) (trace.Trace, []alloc.TenantTraits) {
	t.Helper()
	spec := workload.MixSpec{
		Tenants: []workload.TenantSpec{
			{WriteRatio: 0.9, Share: 0.6},
			{WriteRatio: 0.1, Share: 0.4},
		},
		Requests: requests,
		IOPS:     8000,
		Seed:     11,
	}
	tr, err := spec.Build(cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	return tr, spec.Traits()
}

func testConfig(cfg nand.Config, traits []alloc.TenantTraits) simrun.Config {
	return simrun.Config{
		Device:   cfg,
		Options:  ssd.DefaultOptions(),
		Strategy: alloc.Strategy{Kind: alloc.Shared},
		Traits:   traits,
		Season:   simrun.DefaultSeasoning(),
	}
}

// TestRunnerReuseIsDeterministic is the engine-reuse contract end to end:
// back-to-back sessions on one runner produce exactly the results a fresh
// runner produces.
func TestRunnerReuseIsDeterministic(t *testing.T) {
	cfg := nand.EvalConfig()
	tr, traits := testTrace(t, cfg, 1500)
	rc := testConfig(cfg, traits)

	fresh, err := simrun.NewRunner().Run(context.Background(), rc, tr)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Requests != len(tr) || fresh.Device.Total() <= 0 {
		t.Fatalf("fresh run completed %d of %d requests, total %v", fresh.Requests, len(tr), fresh.Device.Total())
	}
	runner := simrun.NewRunner()
	for round := 0; round < 3; round++ {
		got, err := runner.Run(context.Background(), rc, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got.Requests != fresh.Requests {
			t.Fatalf("round %d: %d requests, fresh run had %d", round, got.Requests, fresh.Requests)
		}
		if got.Device.Total() != fresh.Device.Total() {
			t.Fatalf("round %d: total %v differs from fresh run %v (engine reuse not deterministic)",
				round, got.Device.Total(), fresh.Device.Total())
		}
		if got.Makespan != fresh.Makespan {
			t.Fatalf("round %d: makespan %v vs %v", round, got.Makespan, fresh.Makespan)
		}
	}
}

// TestCounterProbeSeasonedDevice is the acceptance check: a seasoned device
// under write pressure must report nonzero GC and bus-busy counters.
func TestCounterProbeSeasonedDevice(t *testing.T) {
	cfg := nand.EvalConfig()
	tr, traits := testTrace(t, cfg, 4000)
	runner := simrun.NewRunner(simrun.WithProbe(simrun.NewCounterProbe(cfg)))
	res, err := runner.Run(context.Background(), testConfig(cfg, traits), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters == nil {
		t.Fatal("instrumented run returned nil counters")
	}
	mustPositive := []string{"sim.events", "ftl.gc.runs", "ftl.gc.moved_pages", "die.busy_ns"}
	for _, name := range mustPositive {
		if got := res.Counters.Get(name); got <= 0 {
			t.Errorf("counter %s = %d, want > 0 on a seasoned device", name, got)
		}
	}
	// Shared strategy spreads traffic across all channels: every bus busy.
	var busBusy int64
	for ch := 0; ch < cfg.Channels; ch++ {
		busBusy += res.Counters.Get(fmt.Sprintf("ch%d.busy_ns", ch))
	}
	if busBusy <= 0 {
		t.Error("buses never busy under a Shared workload")
	}
	// GC runs imply stall time was charged.
	if got := res.Counters.Get("ftl.gc.stall_ns"); got <= 0 {
		t.Error("GC ran but charged no die time")
	}
}

// TestSessionCountersResetBetweenSessions: each session reports its own run.
func TestSessionCountersResetBetweenSessions(t *testing.T) {
	cfg := nand.EvalConfig()
	tr, traits := testTrace(t, cfg, 800)
	runner := simrun.NewRunner(simrun.WithProbe(simrun.NewCounterProbe(cfg)))
	rc := testConfig(cfg, traits)
	first, err := runner.Run(context.Background(), rc, tr)
	if err != nil {
		t.Fatal(err)
	}
	firstEvents := first.Counters.Get("sim.events")
	second, err := runner.Run(context.Background(), rc, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := second.Counters.Get("sim.events"); got != firstEvents {
		t.Errorf("second identical session fired %d events, first %d — counters not reset per session",
			got, firstEvents)
	}
}

func TestRunCancellation(t *testing.T) {
	cfg := nand.EvalConfig()
	tr, traits := testTrace(t, cfg, 4000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := simrun.NewRunner().Run(ctx, testConfig(cfg, traits), tr)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestEmptyTraitsSkipBinding: a session with no traits leaves every tenant
// on all channels — the unbound state the online keeper starts from.
func TestEmptyTraitsSkipBinding(t *testing.T) {
	cfg := nand.TinyConfig()
	sess, err := simrun.NewRunner().NewSession(simrun.Config{
		Device: cfg, Options: ssd.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	set := sess.Device().FTL().TenantChannels(0)
	if len(set) != cfg.Channels {
		t.Errorf("unbound tenant restricted to %d of %d channels", len(set), cfg.Channels)
	}
}

func TestApplyHybridModes(t *testing.T) {
	cfg := nand.TinyConfig()
	sess, err := simrun.NewRunner().NewSession(simrun.Config{
		Device: cfg, Options: ssd.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := sess.Device()
	traits := []alloc.TenantTraits{{WriteDominated: true}, {WriteDominated: false}}
	if err := simrun.Apply(dev, alloc.Strategy{Kind: alloc.Isolated}, traits, true); err != nil {
		t.Fatal(err)
	}
	if dev.FTL().TenantMode(0) != ftl.DynamicAlloc {
		t.Error("write-dominated tenant not dynamic under hybrid")
	}
	if dev.FTL().TenantMode(1) != ftl.StaticAlloc {
		t.Error("read-dominated tenant not static under hybrid")
	}
}

func TestRunnerCountersNilWithoutProbe(t *testing.T) {
	if c := simrun.NewRunner().Counters(); c != nil {
		t.Errorf("uninstrumented runner exposes counters %v", c)
	}
}

// A reused device is rewound when the session asks for the seasoning it is
// checkpointed at, and reset, re-seasoned and checkpointed again when it
// asks for another; options that differ rebuild it. Whichever path a
// session takes, its result must be a fresh runner's.
func TestRunnerDeviceReuseMatchesFreshAcrossConfigs(t *testing.T) {
	cfg := nand.EvalConfig()
	tr, traits := testTrace(t, cfg, 1200)
	a := testConfig(cfg, traits)
	with := func(edit func(*simrun.Config)) simrun.Config {
		rc := testConfig(cfg, traits)
		edit(&rc)
		return rc
	}
	plan := &nand.FaultPlan{Seed: 7, Events: []nand.FaultEvent{
		{Kind: nand.FaultRetryTail, Prob: 0.1, At: 20 * sim.Millisecond},
		{Kind: nand.FaultDieFail, Channel: 0, Die: 0, At: 50 * sim.Millisecond},
		{Kind: nand.FaultRetireBlock, Channel: 1, Block: 3, At: 110 * sim.Millisecond},
	}}
	runs := []struct {
		name string
		rc   simrun.Config
	}{
		{"seasoned A (fresh device)", a},
		{"A again (first reuse: reset, season, checkpoint)", a},
		{"A again (rewind)", a},
		{"A under another strategy (rewind)", with(func(rc *simrun.Config) { rc.Strategy = alloc.Strategy{Kind: alloc.Isolated} })},
		{"unseasoned (reset)", with(func(rc *simrun.Config) { rc.Season = simrun.Seasoning{} })},
		{"unseasoned again (rewind)", with(func(rc *simrun.Config) { rc.Season = simrun.Seasoning{} })},
		{"seasoned at another valid fraction (reset)", with(func(rc *simrun.Config) { rc.Season.ValidFrac = 0.4 })},
		{"A again (reset)", a},
		{"A again (rewind)", a},
		{"other options (rebuild)", with(func(rc *simrun.Config) { rc.Options.NoCacheRegister = true })},
		{"A again (rebuild)", a},
		{"A with a fault plan (rebuild)", with(func(rc *simrun.Config) { rc.Options.FaultPlan = plan })},
		{"A with the fault plan again (reset)", with(func(rc *simrun.Config) { rc.Options.FaultPlan = plan })},
		{"A with the fault plan again (rewind)", with(func(rc *simrun.Config) { rc.Options.FaultPlan = plan })},
	}
	reused := simrun.NewRunner()
	for i, run := range runs {
		got, err := reused.Run(context.Background(), run.rc, tr)
		if err != nil {
			t.Fatalf("run %d, %s (reused): %v", i, run.name, err)
		}
		want, err := simrun.NewRunner().Run(context.Background(), run.rc, tr)
		if err != nil {
			t.Fatalf("run %d, %s (fresh): %v", i, run.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d, %s: result differs from a fresh runner's (makespan %v vs %v, FTL %+v vs %+v)",
				i, run.name, got.Makespan, want.Makespan, got.FTL, want.FTL)
		}
	}
}

// Results snapshotted out of a session must stay valid after the runner
// starts (and runs) the next session on the same reused device.
func TestResultSurvivesNextSession(t *testing.T) {
	cfg := nand.EvalConfig()
	tr, traits := testTrace(t, cfg, 1000)
	rc := testConfig(cfg, traits)
	r := simrun.NewRunner()
	first, err := r.Run(context.Background(), rc, tr)
	if err != nil {
		t.Fatal(err)
	}
	total := first.Device.Total()
	p99 := first.Device.Read.P99()
	if _, err := r.Run(context.Background(), rc, tr); err != nil {
		t.Fatal(err)
	}
	if first.Device.Total() != total || first.Device.Read.P99() != p99 {
		t.Error("first session's result mutated by the second session")
	}
}
