// Multitenant: the paper's headline scenario. Four tenants with the access
// patterns of the Table II workloads share one SSD; SSDKeeper observes the
// mixed stream, predicts a channel allocation with its trained model, and
// re-binds the channels. The example prints its latency next to a
// traditional shared SSD and a blindly partitioned one. The model is
// trained on only 30 small workloads and Mix2 lies outside them, so its
// held-out accuracy and its choice show the mechanism, not the paper's
// gains.
//
// Run with: go run ./examples/multitenant
package main

import (
	"context"
	"fmt"
	"log"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/experiments"
	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/trace"
)

func main() {
	env := experiments.NewEnv()

	// Train a small model first (a production deployment would load a
	// pre-trained one; see examples/training).
	scale := experiments.QuickScale()
	scale.DatasetWorkloads = 30
	scale.DatasetRequests = 2500
	scale.TrainIterations = 120
	fmt.Println("training the strategy model on", scale.DatasetWorkloads, "labelled workloads...")
	samples, err := experiments.BuildDataset(context.Background(), env, scale, nil)
	if err != nil {
		log.Fatal(err)
	}
	trained, err := experiments.TrainBest(env, scale, samples)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model test accuracy: %.1f%%\n\n", 100*trained.History.FinalAcc)

	// Build Mix2 from Table IV: prxy_0 + src_1 + rsrch_0 + mds_1 — a hot
	// proxy writer, a huge read-mostly source tree, and two lighter
	// tenants.
	profiles := trace.TableII(0.0008, env.Device.PageSize, 7)
	names := trace.Mixes()[1]
	mix, err := trace.BuildMix(names, profiles, 12000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Mix2 = %v: %d requests\n\n", names, len(mix))

	// Baselines.
	traits := make([]alloc.TenantTraits, 4)
	for i, n := range names {
		traits[i] = alloc.TenantTraits{WriteDominated: profiles[n].WriteRatio >= 0.5}
	}
	runBaseline := func(s alloc.Strategy) float64 {
		res, err := simrun.NewRunner().Run(context.Background(), simrun.Config{
			Device: env.Device, Options: env.Options,
			Strategy: s, Traits: traits, Season: env.Season,
		}, mix)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s write %9.1fus  read %9.1fus  total %9.1fus\n",
			s.Name(env.Device.Channels), res.Device.Write.Mean(),
			res.Device.Read.Mean(), res.Device.Total())
		return res.Device.Total()
	}
	sharedTotal := runBaseline(alloc.Strategy{Kind: alloc.Shared})
	runBaseline(alloc.Strategy{Kind: alloc.Isolated})

	// SSDKeeper: observe under Shared for 150ms, then re-allocate.
	k, err := keeper.New(keeper.Config{
		Device:         env.Device,
		Options:        env.Options,
		Strategies:     env.Strategies,
		SaturationIOPS: env.SaturationIOPS,
		Window:         150 * sim.Millisecond,
		Hybrid:         true,
		Season:         env.Season,
	}, trained.Model)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := k.Run(mix)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s write %9.1fus  read %9.1fus  total %9.1fus\n",
		"SSDKeeper(+hybrid)", rep.Device.Write.Mean(),
		rep.Device.Read.Mean(), rep.Device.Total())

	if len(rep.Switches) > 0 {
		sw := rep.Switches[0]
		fmt.Printf("\ncollected features %v at t=%v\n", sw.Vector, sw.At)
		fmt.Printf("chosen allocation: %s\n", sw.Strategy.Name(env.Device.Channels))
	}
	fmt.Printf("improvement over Shared: %.1f%%\n",
		100*(sharedTotal-rep.Device.Total())/sharedTotal)
}
