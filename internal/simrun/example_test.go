package simrun_test

import (
	"context"
	"fmt"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/workload"
)

// ExampleRunner_Run simulates a small two-tenant mix under a 6:2 split and
// prints how many requests completed.
func ExampleRunner_Run() {
	cfg := nand.EvalConfig()
	spec := workload.MixSpec{
		Tenants: []workload.TenantSpec{
			{WriteRatio: 0.9, Share: 0.6},
			{WriteRatio: 0.1, Share: 0.4},
		},
		Requests: 500,
		IOPS:     6000,
		Seed:     1,
	}
	mix, _ := spec.Build(cfg.PageSize)
	res, err := simrun.NewRunner().Run(context.Background(), simrun.Config{
		Device:   cfg,
		Options:  ssd.DefaultOptions(),
		Strategy: alloc.Strategy{Kind: alloc.TwoGroup, WriteChannels: 6},
		Traits:   spec.Traits(),
	}, mix)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("completed:", res.Device.Read.Count+res.Device.Write.Count)
	// Output:
	// completed: 500
}
