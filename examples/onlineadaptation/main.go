// Online adaptation: the "self-adapting" in SSDKeeper. The tenant mix
// changes character mid-run — a read-mostly analytics phase gives way to a
// write-heavy ingest phase. The example compares static Shared, a keeper
// that adapts once to the phase it observed, and a keeper that re-observes
// the stream periodically and re-allocates the channels each time, then
// prints the periodic keeper's allocation timeline. With the small model
// trained here, static Shared has the lowest total latency; the timeline
// shows the periodic keeper switching its choice at the phase change.
//
// Run with: go run ./examples/onlineadaptation
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
	"ssdkeeper/internal/workload"
)

// phase builds one phase of the workload and shifts it to start at `at`.
func phase(spec workload.MixSpec, pageSize int, at sim.Time) (trace.Trace, error) {
	tr, err := spec.Build(pageSize)
	if err != nil {
		return nil, err
	}
	return tr.Shift(at), nil
}

func main() {
	env := experiments.NewEnv()
	scale := experiments.QuickScale()
	scale.DatasetWorkloads = 30
	scale.DatasetRequests = 2500
	scale.TrainIterations = 120
	fmt.Println("training the strategy model...")
	samples, err := experiments.BuildDataset(context.Background(), env, scale, nil)
	if err != nil {
		log.Fatal(err)
	}
	trained, err := experiments.TrainBest(env, scale, samples)
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1 (0..~0.5s): read-dominated mix. Phase 2: write-heavy
	// ingest on the same tenants.
	readPhase := workload.MixSpec{
		Tenants: []workload.TenantSpec{
			{WriteRatio: 0.1, Share: 0.4},
			{WriteRatio: 0.05, Share: 0.3},
			{WriteRatio: 0.9, Share: 0.15},
			{WriteRatio: 0.1, Share: 0.15},
		},
		Requests: 4000, IOPS: 8000, Seed: 11,
	}
	writePhase := workload.MixSpec{
		Tenants: []workload.TenantSpec{
			{WriteRatio: 0.95, Share: 0.5},
			{WriteRatio: 0.9, Share: 0.3},
			{WriteRatio: 0.1, Share: 0.1},
			{WriteRatio: 0.05, Share: 0.1},
		},
		Requests: 4000, IOPS: 8000, Seed: 12,
	}
	p1, err := phase(readPhase, env.Device.PageSize, 0)
	if err != nil {
		log.Fatal(err)
	}
	cut := p1[len(p1)-1].Time + sim.Millisecond
	p2, err := phase(writePhase, env.Device.PageSize, cut)
	if err != nil {
		log.Fatal(err)
	}
	mix := append(append(trace.Trace{}, p1...), p2...)
	if err := mix.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two-phase workload: %d requests, phase change at %v\n\n", len(mix), cut)

	// Static Shared baseline.
	traits := make([]alloc.TenantTraits, 4)
	res, err := simrun.NewRunner().Run(context.Background(), simrun.Config{
		Device: env.Device, Options: env.Options,
		Strategy: alloc.Strategy{Kind: alloc.Shared},
		Traits:   traits, Season: env.Season,
	}, mix)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s total %9.1fus\n", "Shared (static)", res.Device.Total())

	// One-shot SSDKeeper: adapts once, to the read phase it observed,
	// and is stuck with that choice when the ingest starts.
	oneShot, err := keeper.New(keeper.Config{
		Device: env.Device, Options: env.Options, Strategies: env.Strategies,
		SaturationIOPS: env.SaturationIOPS,
		Window:         100 * sim.Millisecond,
		Hybrid:         true,
		Season:         env.Season,
	}, trained.Model)
	if err != nil {
		log.Fatal(err)
	}
	oneRep, err := oneShot.Run(mix)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s total %9.1fus  (switched %d time)\n",
		"SSDKeeper (one-shot)", oneRep.Device.Total(), len(oneRep.Switches))

	// Periodic SSDKeeper: re-observes every 150ms and follows the phase
	// change.
	periodic, err := keeper.New(keeper.Config{
		Device: env.Device, Options: env.Options, Strategies: env.Strategies,
		SaturationIOPS: env.SaturationIOPS,
		Window:         100 * sim.Millisecond,
		AdaptEvery:     150 * sim.Millisecond,
		Hybrid:         true,
		Season:         env.Season,
	}, trained.Model)
	if err != nil {
		log.Fatal(err)
	}
	perRep, err := periodic.Run(mix)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s total %9.1fus  (switched %d times)\n\n",
		"SSDKeeper (periodic)", perRep.Device.Total(), len(perRep.Switches))

	fmt.Println("allocation timeline:")
	for _, sw := range perRep.Switches {
		fmt.Printf("  t=%-12v features %v -> %s\n",
			sw.At, sw.Vector, sw.Strategy.Name(env.Device.Channels))
	}
}
