package main

import (
	"context"
	"fmt"
	"time"

	"ssdkeeper/internal/dataset"
	"ssdkeeper/internal/experiments"
	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/policy"
	"ssdkeeper/internal/sim"
)

// common is what every workload's set-up shares: the evaluation device
// environment and a keeper over a freshly trained float64 model.
type common struct {
	env    experiments.Env
	keeper *keeper.Keeper

	labelS  float64 // dataset.Generate wall seconds
	labels  int     // (workload, strategy) simulations labelled
	trainS  float64 // keeper.TrainOnSamples wall seconds
	testAcc float64
}

// buildCommon labels sc.trainWorkloads mixes under all 42 strategies, trains
// the classifier and wraps it in a keeper configured like the daemon
// (window = adapt-every = 100 ms simulated, hybrid allocator on). The
// training seed is fixed at 1 whatever -seed says: the model is part of the
// system under test, not of the generated input.
func buildCommon(sc scale) (*common, error) {
	c := &common{env: experiments.NewEnv()}
	dcfg := dataset.Config{
		Device: c.env.Device, Options: c.env.Options, Strategies: c.env.Strategies,
		Workloads: sc.trainWorkloads, Requests: sc.trainRequests,
		MaxIOPS: c.env.SaturationIOPS, Season: c.env.Season, Seed: 1,
	}
	t0 := time.Now()
	samples, err := dataset.Generate(context.Background(), dcfg, nil)
	if err != nil {
		return nil, fmt.Errorf("label dataset: %w", err)
	}
	c.labelS = time.Since(t0).Seconds()
	c.labels = len(samples) * len(c.env.Strategies)

	t0 = time.Now()
	res, err := keeper.TrainOnSamples(keeper.TrainConfig{
		Dataset: dcfg, Hidden: 16, Iterations: sc.trainIterations, BatchSize: 16, Seed: 1,
	}, samples)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	c.trainS = time.Since(t0).Seconds()
	c.testAcc = res.History.FinalAcc

	model, err := policy.NewModel("bench", res.Model, c.env.Strategies)
	if err != nil {
		return nil, err
	}
	c.keeper, err = keeper.NewWithProvider(keeper.Config{
		Device: c.env.Device, Options: c.env.Options, Strategies: c.env.Strategies,
		SaturationIOPS: c.env.SaturationIOPS,
		Window:         100 * sim.Millisecond, AdaptEvery: 100 * sim.Millisecond,
		Hybrid: true, Season: c.env.Season,
	}, model)
	if err != nil {
		return nil, err
	}
	return c, nil
}
