package ssdkeeper_test

// External-package test: proves the public façade alone is sufficient for
// the library's main flows (simulate, learn, allocate), exactly as a
// downstream importer would use it.

import (
	"bytes"
	"context"
	"testing"

	"ssdkeeper"
)

func TestPublicAPISimulateFlow(t *testing.T) {
	cfg := ssdkeeper.EvalConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	spec := ssdkeeper.MixSpec{
		Tenants: []ssdkeeper.TenantSpec{
			{WriteRatio: 0.9, Share: 0.5},
			{WriteRatio: 0.1, Share: 0.5},
		},
		Requests: 800,
		IOPS:     8000,
		Seed:     1,
	}
	mix, err := spec.Build(cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ssdkeeper.ParseStrategy("6:2", cfg.Channels)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ssdkeeper.Run(ssdkeeper.RunConfig{
		Device:   cfg,
		Options:  ssdkeeper.DefaultOptions(),
		Strategy: s,
		Traits:   spec.Traits(),
		Season:   ssdkeeper.DefaultSeasoning(),
	}, mix)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(mix) || res.Device.Total() <= 0 {
		t.Errorf("implausible result: %d requests, total %v", res.Requests, res.Device.Total())
	}
}

func TestPublicAPITraceRoundTrip(t *testing.T) {
	profiles := ssdkeeper.TableII(0.0001, ssdkeeper.EvalConfig().PageSize, 3)
	tr, err := ssdkeeper.GenerateTrace(profiles["web_2"])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ssdkeeper.WriteMSR(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, _, err := ssdkeeper.ReadMSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tr) {
		t.Errorf("round trip %d vs %d records", len(back), len(tr))
	}
}

func TestPublicAPILearningFlow(t *testing.T) {
	env := ssdkeeper.NewEnv()
	scale := ssdkeeper.QuickScale()
	scale.DatasetWorkloads = 6
	scale.DatasetRequests = 400

	samples, err := ssdkeeper.BuildDataset(context.Background(), env, scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	trained, err := ssdkeeper.TrainBest(env, scale, samples)
	if err != nil {
		t.Fatal(err)
	}

	// Model persistence through the façade.
	var buf bytes.Buffer
	if err := trained.Model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	model, err := ssdkeeper.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}

	k, err := ssdkeeper.NewKeeper(ssdkeeper.KeeperConfig{
		Device:         env.Device,
		Options:        env.Options,
		Strategies:     env.Strategies,
		SaturationIOPS: env.SaturationIOPS,
		Window:         50 * ssdkeeper.Millisecond,
		Season:         env.Season,
	}, model)
	if err != nil {
		t.Fatal(err)
	}
	spec := ssdkeeper.MixSpec{
		Tenants: []ssdkeeper.TenantSpec{
			{WriteRatio: 0.95, Share: 0.4},
			{WriteRatio: 0.05, Share: 0.3},
			{WriteRatio: 0.9, Share: 0.2},
			{WriteRatio: 0.1, Share: 0.1},
		},
		Requests: 2000,
		IOPS:     9000,
		Seed:     5,
	}
	mix, err := spec.Build(env.Device.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := k.Run(mix)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Switches) == 0 {
		t.Error("keeper never adapted")
	}
}

func TestPublicAPIRunLayer(t *testing.T) {
	cfg := ssdkeeper.EvalConfig()
	spec := ssdkeeper.MixSpec{
		Tenants: []ssdkeeper.TenantSpec{
			{WriteRatio: 0.9, Share: 0.6},
			{WriteRatio: 0.1, Share: 0.4},
		},
		Requests: 1200,
		IOPS:     8000,
		Seed:     9,
	}
	mix, err := spec.Build(cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	rc := ssdkeeper.RunConfig{
		Device:   cfg,
		Options:  ssdkeeper.DefaultOptions(),
		Strategy: ssdkeeper.Strategy{Kind: ssdkeeper.Shared},
		Traits:   spec.Traits(),
		Season:   ssdkeeper.DefaultSeasoning(),
	}

	// RunContext through the façade, with cancellation honored.
	res, err := ssdkeeper.RunContext(context.Background(), rc, mix)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(mix) {
		t.Errorf("completed %d of %d", res.Requests, len(mix))
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ssdkeeper.RunContext(cancelled, rc, mix); err == nil {
		t.Error("cancelled RunContext succeeded")
	}

	// Instrumented runner: counters visible through the façade types.
	runner := ssdkeeper.NewRunner(ssdkeeper.WithProbe(ssdkeeper.NewCounterProbe(cfg)))
	run, err := runner.Run(context.Background(), rc, mix)
	if err != nil {
		t.Fatal(err)
	}
	if run.Counters == nil || run.Counters.Get("sim.events") <= 0 {
		t.Error("instrumented run reported no events")
	}
	if run.Counters.Get("ftl.gc.runs") <= 0 {
		t.Error("seasoned run reported no GC activity")
	}
}

func TestPublicAPIStrategySpaces(t *testing.T) {
	if got := len(ssdkeeper.TwoTenantSpace(8)); got != 8 {
		t.Errorf("two-tenant space %d", got)
	}
	if got := len(ssdkeeper.FourTenantSpace(8)); got != 42 {
		t.Errorf("four-tenant space %d", got)
	}
}
