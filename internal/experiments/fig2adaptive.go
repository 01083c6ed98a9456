package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/dataset"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/policy"
	"ssdkeeper/internal/workload"
)

// Section III.B motivates SSDKeeper with the two-tenant sweep: "single
// channel allocation method can not adapt to variable mixed workloads ...
// These observations motivate us to find a self-adjusting channel
// allocation strategy." Fig2Adaptive closes that loop: it trains a
// two-tenant model (8-strategy space) and walks the Figure 2 sweep,
// comparing the model's pick at every write proportion against the best
// and worst static strategies.

// Fig2AdaptiveRow is one write-proportion point.
type Fig2AdaptiveRow struct {
	WriteProportion float64
	Chosen          string
	ChosenUs        float64
	Best            string
	BestUs          float64
	SharedUs        float64
	WorstUs         float64
	// RegretPct is how much slower the model's pick is than the best
	// static strategy at this point.
	RegretPct float64
}

// Fig2AdaptiveResult carries the sweep and its summary.
type Fig2AdaptiveResult struct {
	Rows []Fig2AdaptiveRow
	// MeanRegretPct summarizes adaptivity; a single static strategy's
	// regret is its distance from the per-point best, the adaptive
	// model's should be near zero.
	MeanRegretPct float64
	// BestStaticRegretPct is the mean regret of the single best fixed
	// strategy chosen in hindsight — what a non-adaptive tuner achieves.
	BestStaticRegretPct float64
	BestStaticName      string
}

// twoTenantSpec draws a random two-tenant mix (one write-dominated, one
// read-dominated tenant, random shares and intensity).
func twoTenantSpec(rng *rand.Rand, requests int, maxIOPS float64) workload.MixSpec {
	share := 0.1 + 0.8*rng.Float64()
	return workload.MixSpec{
		Tenants: []workload.TenantSpec{
			{WriteRatio: 0.75 + 0.25*rng.Float64(), Share: share},
			{WriteRatio: 0.25 * rng.Float64(), Share: 1 - share},
		},
		Requests: requests,
		IOPS:     maxIOPS * (0.02 + 0.98*rng.Float64()),
		Seed:     rng.Int63(),
	}
}

// Fig2Adaptive trains a two-tenant strategy model and evaluates it across
// the Figure 2 write-proportion sweep, reading every static strategy's
// latency from fig2 (the Fig2 result at the same env and scale) rather than
// simulating the sweep again.
func Fig2Adaptive(ctx context.Context, env Env, scale Scale, fig2 Fig2Result, progress func(done, total int)) (Fig2AdaptiveResult, error) {
	if err := validateScale(scale); err != nil {
		return Fig2AdaptiveResult{}, err
	}
	space := alloc.TwoTenantSpace(env.Device.Channels)
	if len(fig2.Points) == 0 || len(fig2.Points[0].Rows) != len(space) {
		return Fig2AdaptiveResult{}, fmt.Errorf("fig2adaptive: fig2 is not this env's two-tenant sweep")
	}

	// Label a two-tenant dataset. dataset.Generate draws 4-tenant specs,
	// so label the hand-drawn two-tenant specs directly.
	cfg := dataset.Config{
		Device:     env.Device,
		Options:    env.Options,
		Strategies: space,
		Workloads:  scale.DatasetWorkloads,
		Requests:   scale.DatasetRequests,
		MaxIOPS:    env.SaturationIOPS,
		Season:     env.Season,
		Seed:       scale.Seed,
	}
	rng := rand.New(rand.NewSource(scale.Seed + 2))
	labeler := dataset.NewLabeler(cfg)
	samples := make([]dataset.Sample, cfg.Workloads)
	for i := range samples {
		spec := twoTenantSpec(rng, cfg.Requests, cfg.MaxIOPS)
		s, err := labeler.Label(ctx, spec)
		if err != nil {
			return Fig2AdaptiveResult{}, fmt.Errorf("fig2adaptive: workload %d: %w", i, err)
		}
		samples[i] = s
		if progress != nil {
			progress(i+1, cfg.Workloads)
		}
	}

	trained, err := train(deployedRow, space, scale, samples)
	if err != nil {
		return Fig2AdaptiveResult{}, err
	}
	pol, err := policy.NewANN(trained.Model, space)
	if err != nil {
		return Fig2AdaptiveResult{}, err
	}

	// Walk the Figure 2 sweep: at each write proportion, compare the
	// model's pick from ground-truth features with every static strategy.
	var out Fig2AdaptiveResult
	perStrategyRegret := make([]float64, len(space))
	for _, p := range fig2.Points {
		wp := p.WriteProportion
		lat := make([]float64, len(space))
		row := Fig2AdaptiveRow{WriteProportion: wp}
		bestIdx, worst := 0, 0.0
		for si, r := range p.Rows {
			if r.Infeasible {
				lat[si] = dataset.Infeasible
				continue
			}
			lat[si] = r.TotalUs
			if space[si].Kind == alloc.Shared {
				row.SharedUs = lat[si]
			}
			if lat[si] < lat[bestIdx] {
				bestIdx = si
			}
			if lat[si] > worst {
				worst = lat[si]
			}
		}
		vec, err := features.FromSpecShares(
			features.LevelOf(scale.Fig2IOPS, env.SaturationIOPS),
			[]float64{1, 0}, []float64{wp, 1 - wp})
		if err != nil {
			return Fig2AdaptiveResult{}, err
		}
		chosen, err := pol.Decide(vec)
		if err != nil {
			return Fig2AdaptiveResult{}, err
		}
		pick := alloc.Index(space, chosen)
		row.Chosen = space[pick].Name(env.Device.Channels)
		row.ChosenUs = lat[pick]
		row.Best = space[bestIdx].Name(env.Device.Channels)
		row.BestUs = lat[bestIdx]
		row.WorstUs = worst
		if row.BestUs > 0 && row.ChosenUs != dataset.Infeasible {
			row.RegretPct = 100 * (row.ChosenUs - row.BestUs) / row.BestUs
		} else if row.ChosenUs == dataset.Infeasible {
			row.RegretPct = 1000
		}
		out.MeanRegretPct += row.RegretPct
		for si := range space {
			if lat[si] == dataset.Infeasible {
				perStrategyRegret[si] += 1000
			} else {
				perStrategyRegret[si] += 100 * (lat[si] - row.BestUs) / row.BestUs
			}
		}
		out.Rows = append(out.Rows, row)
	}
	out.MeanRegretPct /= float64(len(out.Rows))
	bestStatic := 0
	for si := range space {
		perStrategyRegret[si] /= float64(len(out.Rows))
		if perStrategyRegret[si] < perStrategyRegret[bestStatic] {
			bestStatic = si
		}
	}
	out.BestStaticRegretPct = perStrategyRegret[bestStatic]
	out.BestStaticName = space[bestStatic].Name(env.Device.Channels)
	return out, nil
}

// Render formats the adaptive sweep.
func (r Fig2AdaptiveResult) Render() string {
	var b strings.Builder
	b.WriteString("Self-adjusting allocation across the Figure 2 sweep (Section III.B)\n")
	fmt.Fprintf(&b, "%6s %10s %12s %10s %12s %12s %10s\n",
		"write%", "chosen", "chosen(us)", "best", "best(us)", "Shared(us)", "regret%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%5.0f%% %10s %12.1f %10s %12.1f %12.1f %9.1f%%\n",
			100*row.WriteProportion, row.Chosen, row.ChosenUs,
			row.Best, row.BestUs, row.SharedUs, row.RegretPct)
	}
	fmt.Fprintf(&b, "\nadaptive model mean regret: %.1f%%   best single static strategy (%s): %.1f%%\n",
		r.MeanRegretPct, r.BestStaticName, r.BestStaticRegretPct)
	return b.String()
}
