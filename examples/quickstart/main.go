// Quickstart: simulate two tenants sharing one SSD and compare the three
// canonical channel allocations — Shared (a traditional SSD), Isolated (a
// blindly partitioned Open-Channel SSD) and a two-group split — to see the
// access-conflict problem SSDKeeper solves.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/workload"
)

func main() {
	// The SSD: Table I timing (16KB pages, 20us reads, 200us programs,
	// 1.5ms erases) on the scaled evaluation geometry, aged so garbage
	// collection is active — like a real device in steady state.
	cfg := nand.EvalConfig()

	// The tenants: a write-heavy database (70% of traffic) and a
	// read-heavy analytics job (30%), arriving at 8000 requests/s.
	spec := workload.MixSpec{
		Tenants: []workload.TenantSpec{
			{WriteRatio: 0.95, Share: 0.7},
			{WriteRatio: 0.05, Share: 0.3},
		},
		Requests: 10000,
		IOPS:     8000,
		Seed:     42,
	}
	mix, err := spec.Build(cfg.PageSize)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mixed workload: %d requests from %d tenants\n\n", len(mix), len(spec.Tenants))

	strategies := []alloc.Strategy{
		{Kind: alloc.Shared},
		{Kind: alloc.Isolated},
		{Kind: alloc.TwoGroup, WriteChannels: 6}, // 6 channels for the writer, 2 for the reader
	}
	fmt.Printf("%-10s %12s %12s %12s %12s\n",
		"strategy", "write(us)", "read(us)", "total(us)", "conflicts")
	var sharedTotal float64
	for _, s := range strategies {
		res, err := simrun.NewRunner().Run(context.Background(), simrun.Config{
			Device:   cfg,
			Options:  ssd.DefaultOptions(),
			Strategy: s,
			Traits:   spec.Traits(),
			Season:   simrun.DefaultSeasoning(),
		}, mix)
		if err != nil {
			log.Fatal(err)
		}
		if s.Kind == alloc.Shared {
			sharedTotal = res.Device.Total()
		}
		fmt.Printf("%-10s %12.1f %12.1f %12.1f %12d\n",
			s.Name(cfg.Channels),
			res.Device.Write.Mean(), res.Device.Read.Mean(),
			res.Device.Total(), res.Conflicts)
	}

	res, err := simrun.NewRunner().Run(context.Background(), simrun.Config{
		Device:   cfg,
		Options:  ssd.DefaultOptions(),
		Strategy: alloc.Strategy{Kind: alloc.TwoGroup, WriteChannels: 6},
		Traits:   spec.Traits(),
		Hybrid:   true, // dynamic page allocation for the writer, static for the reader
		Season:   simrun.DefaultSeasoning(),
	}, mix)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-10s %12.1f %12.1f %12.1f %12d   (6:2 + hybrid page allocation)\n",
		"6:2+hyb",
		res.Device.Write.Mean(), res.Device.Read.Mean(),
		res.Device.Total(), res.Conflicts)

	fmt.Printf("\nright-sizing the channel split improves total latency over Shared by %.1f%%\n",
		100*(sharedTotal-res.Device.Total())/sharedTotal)
	fmt.Println("SSDKeeper learns to pick that split automatically — see examples/multitenant.")
}
