package experiments

import (
	"context"
	"fmt"
	"strings"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/dataset"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/workload"
)

// ablationMix is the write-heavy two-tenant mix both ablations replay. It
// does not follow the Scale, so results/ablations.txt is one file.
var ablationMix = workload.MixSpec{
	Tenants:  []workload.TenantSpec{{WriteRatio: 0.95, Share: 0.6}, {WriteRatio: 0.05, Share: 0.4}},
	Requests: 6000, IOPS: 8000, Seed: 5,
}

// ArbitrationRow is Shared's total latency (mean read plus mean write, µs)
// under one arbitration, and the best two-tenant strategy's.
type ArbitrationRow struct {
	Arbitration      string
	SharedUs, BestUs float64
	Best             string
}

// PageAllocRow is the 6:2 split's total latency and GC pages moved on one
// device age under one page allocation mode.
type PageAllocRow struct {
	Device, Mode string
	TotalUs      float64
	GCMovedPages uint64
}

// AblationsResult is results/ablations.{txt,json}.
type AblationsResult struct {
	ReadPriority []ArbitrationRow
	PageAlloc    []PageAllocRow
}

// Ablations runs the two design ablations EXPERIMENTS.md cites on
// ablationMix. Read priority costs the two-tenant space under FIFO
// arbitration (the paper's substrate) and under strict read priority, as
// Fig2 costs a point. Page allocation replays 6:2 with static and hybrid
// allocation on a fresh and on a seasoned device.
func Ablations(ctx context.Context, env Env) (AblationsResult, error) {
	tr, err := ablationMix.Build(env.Device.PageSize)
	if err != nil {
		return AblationsResult{}, err
	}
	traits := ablationMix.Traits()
	var out AblationsResult
	space := alloc.TwoTenantSpace(env.Device.Channels)
	for _, arb := range []string{"fifo", "readpriority"} {
		e := env
		e.Options.ReadPriority = arb == "readpriority"
		costs, err := e.labeler(space, 0).Costs(ctx, tr, traits, nil)
		if err != nil {
			return AblationsResult{}, fmt.Errorf("ablations %s: %w", arb, err)
		}
		row := ArbitrationRow{Arbitration: arb, BestUs: dataset.Infeasible}
		for si, c := range costs {
			if space[si].Kind == alloc.Shared {
				row.SharedUs = c.Total()
			}
			if c.Total() < row.BestUs {
				row.Best, row.BestUs = space[si].Name(env.Device.Channels), c.Total()
			}
		}
		out.ReadPriority = append(out.ReadPriority, row)
	}
	split := alloc.Strategy{Kind: alloc.TwoGroup, WriteChannels: 6}
	runner := simrun.NewRunner()
	for _, device := range []string{"fresh", "seasoned"} {
		e := env
		if device == "fresh" {
			e.Season = simrun.Seasoning{}
		}
		for _, mode := range []string{"static", "hybrid"} {
			res, err := e.runOne(ctx, runner, split, traits, mode == "hybrid", tr)
			if err != nil {
				return AblationsResult{}, fmt.Errorf("ablations %s/%s: %w", device, mode, err)
			}
			out.PageAlloc = append(out.PageAlloc, PageAllocRow{device, mode, res.Device.Total(), res.FTL.GCMovedPages})
		}
	}
	return out, nil
}

// Render formats both ablations as tables.
func (r AblationsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations: %d requests at %.0f IOPS, seed %d, two tenants (%.0f%% writes at share %.1f, %.0f%% at %.1f)\n\n",
		ablationMix.Requests, ablationMix.IOPS, ablationMix.Seed,
		100*ablationMix.Tenants[0].WriteRatio, ablationMix.Tenants[0].Share,
		100*ablationMix.Tenants[1].WriteRatio, ablationMix.Tenants[1].Share)
	fmt.Fprintf(&b, "Read priority: Shared and the best two-tenant strategy, total latency\n%-14s %12s %10s %12s %10s\n",
		"arbitration", "Shared(us)", "best", "best(us)", "vs Shared")
	for _, row := range r.ReadPriority {
		fmt.Fprintf(&b, "%-14s %12.1f %10s %12.1f %9.1f%%\n",
			row.Arbitration, row.SharedUs, row.Best, row.BestUs, 100*(1-row.BestUs/row.SharedUs))
	}
	fmt.Fprintf(&b, "\nPage allocation under 6:2\n%-10s %-8s %12s %14s\n", "device", "mode", "total(us)", "gc-pages-moved")
	for _, row := range r.PageAlloc {
		fmt.Fprintf(&b, "%-10s %-8s %12.1f %14d\n", row.Device, row.Mode, row.TotalUs, row.GCMovedPages)
	}
	return b.String()
}
