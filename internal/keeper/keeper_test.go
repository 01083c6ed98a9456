package keeper

import (
	"bytes"
	"context"
	"testing"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/dataset"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/nn"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/workload"
)

func testStrategies() []alloc.Strategy {
	return []alloc.Strategy{
		{Kind: alloc.Shared},
		{Kind: alloc.Isolated},
		{Kind: alloc.TwoGroup, WriteChannels: 6},
	}
}

func testConfig() Config {
	return Config{
		Device:         nand.EvalConfig(),
		Options:        ssd.DefaultOptions(),
		Strategies:     testStrategies(),
		SaturationIOPS: 16000,
		Window:         100 * sim.Millisecond,
	}
}

func testModel(t *testing.T, classes int) *nn.Network {
	t.Helper()
	net, err := nn.NewMLP([]int{features.Dim, 8, classes}, nn.Logistic{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// forcedModel returns a model that always predicts the given class, by
// setting that output's bias very high.
func forcedModel(t *testing.T, classes, class int) *nn.Network {
	t.Helper()
	net := testModel(t, classes)
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

func TestNewValidatesModelShape(t *testing.T) {
	cfg := testConfig()
	if _, err := New(cfg, nil); err == nil {
		t.Error("nil model accepted")
	}
	wrongIn, _ := nn.NewMLP([]int{5, 4, 3}, nn.ReLU{}, 1)
	if _, err := New(cfg, wrongIn); err == nil {
		t.Error("wrong input dim accepted")
	}
	wrongOut := testModel(t, 7)
	if _, err := New(cfg, wrongOut); err == nil {
		t.Error("wrong class count accepted")
	}
	if _, err := New(cfg, testModel(t, len(cfg.Strategies))); err != nil {
		t.Errorf("valid keeper rejected: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.Strategies = nil },
		func(c *Config) { c.SaturationIOPS = 0 },
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.AdaptEvery = -1 },
		func(c *Config) { c.Device.Channels = 0 },
	}
	for i, mut := range muts {
		cfg := testConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestPredictMapsClassToStrategy(t *testing.T) {
	cfg := testConfig()
	k, err := New(cfg, forcedModel(t, len(cfg.Strategies), 2))
	if err != nil {
		t.Fatal(err)
	}
	s, idx, err := k.Predict(features.Vector{Intensity: 5})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 || !alloc.Equal(s, cfg.Strategies[2]) {
		t.Errorf("predicted %d (%v)", idx, s)
	}
}

func TestRunSwitchesAfterWindow(t *testing.T) {
	cfg := testConfig()
	cfg.Season = simrun.DefaultSeasoning()
	k, err := New(cfg, forcedModel(t, len(cfg.Strategies), 2))
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.MixSpec{
		Tenants: []workload.TenantSpec{
			{WriteRatio: 0.9, Share: 0.5},
			{WriteRatio: 0.1, Share: 0.5},
		},
		Requests: 4000,
		IOPS:     8000,
		Seed:     3,
	}
	tr, err := spec.Build(cfg.Device.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := k.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Switches) != 1 {
		t.Fatalf("got %d switches, want 1", len(rep.Switches))
	}
	sw := rep.Switches[0]
	if sw.At != cfg.Window {
		t.Errorf("switched at %v, want %v", sw.At, cfg.Window)
	}
	if sw.Index != 2 {
		t.Errorf("switched to class %d, want forced 2", sw.Index)
	}
	if !alloc.Equal(rep.Chosen(), cfg.Strategies[2]) {
		t.Errorf("Chosen() = %v", rep.Chosen())
	}
	// The window saw ~half the trace; observed features must reflect the
	// two tenants' characteristics.
	if sw.Vector.ReadChar[0] || !sw.Vector.ReadChar[1] {
		t.Errorf("collected characteristics wrong: %v", sw.Vector)
	}
	if rep.Result.Requests != 4000 {
		t.Errorf("requests %d", rep.Result.Requests)
	}
}

func TestRunNoSwitchOnShortTrace(t *testing.T) {
	cfg := testConfig()
	cfg.Window = sim.Second * 100 // longer than the trace
	k, err := New(cfg, forcedModel(t, len(cfg.Strategies), 1))
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.MixSpec{
		Tenants:  []workload.TenantSpec{{WriteRatio: 1, Share: 1}},
		Requests: 200,
		IOPS:     5000,
		Seed:     1,
	}
	tr, err := spec.Build(cfg.Device.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := k.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Switches) != 0 {
		t.Errorf("switched %d times on a short trace", len(rep.Switches))
	}
	if got := rep.Chosen(); got.Kind != alloc.Shared {
		t.Errorf("Chosen() = %v, want Shared fallback", got)
	}
}

func TestRunPeriodicAdaptation(t *testing.T) {
	cfg := testConfig()
	cfg.Window = 50 * sim.Millisecond
	cfg.AdaptEvery = 100 * sim.Millisecond
	k, err := New(cfg, forcedModel(t, len(cfg.Strategies), 0))
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.MixSpec{
		Tenants: []workload.TenantSpec{
			{WriteRatio: 0.9, Share: 0.5},
			{WriteRatio: 0.1, Share: 0.5},
		},
		Requests: 5000,
		IOPS:     10000,
		Seed:     2,
	}
	tr, err := spec.Build(cfg.Device.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := k.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Trace spans ~500ms: first switch at 50ms then every 100ms.
	if len(rep.Switches) < 3 {
		t.Errorf("only %d switches with periodic adaptation", len(rep.Switches))
	}
	for i := 1; i < len(rep.Switches); i++ {
		if got := rep.Switches[i].At - rep.Switches[i-1].At; got != cfg.AdaptEvery {
			t.Errorf("switch gap %v, want %v", got, cfg.AdaptEvery)
		}
	}
}

func TestTrainOnSamplesProducesWorkingKeeper(t *testing.T) {
	cfg := testConfig()
	dsCfg := dataset.Config{
		Device:     cfg.Device,
		Options:    cfg.Options,
		Strategies: cfg.Strategies,
		Workloads:  6,
		Requests:   500,
		MaxIOPS:    cfg.SaturationIOPS,
		Season:     simrun.DefaultSeasoning(),
		Seed:       4,
	}
	samples, err := dataset.Generate(context.Background(), dsCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainOnSamples(TrainConfig{
		Dataset:    dsCfg,
		Hidden:     8,
		Iterations: 20,
		BatchSize:  4,
		Seed:       1,
	}, samples)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.InputDim() != features.Dim || res.Model.OutputDim() != len(cfg.Strategies) {
		t.Errorf("model shape %d->%d", res.Model.InputDim(), res.Model.OutputDim())
	}
	if len(res.History.Points) == 0 {
		t.Error("no training history")
	}
	// The trained model survives persistence and drives a keeper that
	// adapts once its window has been observed.
	var buf bytes.Buffer
	if err := res.Model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	model, err := nn.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(cfg, model)
	if err != nil {
		t.Fatalf("trained model rejected by keeper: %v", err)
	}
	spec := workload.MixSpec{
		Tenants: []workload.TenantSpec{
			{WriteRatio: 0.95, Share: 0.4},
			{WriteRatio: 0.05, Share: 0.3},
			{WriteRatio: 0.9, Share: 0.2},
			{WriteRatio: 0.1, Share: 0.1},
		},
		Requests: 2000,
		IOPS:     9000,
		Seed:     5,
	}
	tr, err := spec.Build(cfg.Device.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := k.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Switches) == 0 {
		t.Error("keeper never adapted")
	}
}

func TestTrainEndToEnd(t *testing.T) {
	cfg := testConfig()
	res, err := Train(context.Background(), TrainConfig{
		Dataset: dataset.Config{
			Device:     cfg.Device,
			Options:    cfg.Options,
			Strategies: cfg.Strategies,
			Workloads:  4,
			Requests:   400,
			MaxIOPS:    cfg.SaturationIOPS,
			Season:     simrun.DefaultSeasoning(),
			Seed:       2,
		},
		Hidden:     8,
		Iterations: 10,
		BatchSize:  4,
		Seed:       1,
	}, func(done, total int) {
		if total != 4 {
			t.Errorf("progress total %d", total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 4 {
		t.Errorf("samples %d", len(res.Samples))
	}
	// 0.7*4 truncates to 2 training samples, leaving 2 held out.
	if len(res.TestSamples) != 2 {
		t.Errorf("test samples %d, want 2", len(res.TestSamples))
	}
}

func TestReportChosenDefaultsToShared(t *testing.T) {
	var r Report
	if got := r.Chosen(); got.Kind != alloc.Shared {
		t.Errorf("empty report chose %v", got)
	}
}

func TestKeeperAccessors(t *testing.T) {
	cfg := testConfig()
	k, err := New(cfg, testModel(t, len(cfg.Strategies)))
	if err != nil {
		t.Fatal(err)
	}
	if k.Config().Window != cfg.Window {
		t.Error("Config() accessor broken")
	}
}
