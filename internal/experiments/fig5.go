package experiments

import (
	"context"
	"fmt"
	"strings"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/ftl"
	"ssdkeeper/internal/nn"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/stats"
	"ssdkeeper/internal/trace"
)

// keeperWindow is T in Algorithm 2: how long SSDKeeper observes the mixed
// workload under Shared before predicting. Scaled traces span a few seconds,
// so a 200ms window gives the collector thousands of arrivals.
const keeperWindow = 200 * sim.Millisecond

// LatencyRow is one bar group of Figure 5.
type LatencyRow struct {
	WriteUs float64
	ReadUs  float64
	TotalUs float64
}

// toRow reads only the means, so a dataset.Cost's Count and Sum suffice.
func toRow(l stats.Latency) LatencyRow {
	return LatencyRow{
		WriteUs: l.Write.Mean(),
		ReadUs:  l.Read.Mean(),
		TotalUs: l.Total(),
	}
}

// MixReport is Table V's row and Figure 5's bar group for one mix.
type MixReport struct {
	Name      string
	Workloads [4]string
	// Vector is the feature vector SSDKeeper collected during its
	// observation window (Table V "Characteristics of Mixed Workload").
	Vector features.Vector
	// Chosen is the strategy SSDKeeper selected (Table V last column).
	Chosen string

	Shared LatencyRow
	// Keeper replays the whole mix under the strategy SSDKeeper chose —
	// the paper's evaluation procedure ("the best selected channel
	// allocation strategy by SSDKeeper is Shared, so it has the same
	// performance as Shared").
	Isolated     LatencyRow
	Keeper       LatencyRow // chosen strategy, static page allocation
	KeeperHybrid LatencyRow // chosen strategy + hybrid page allocator
	// KeeperOnline is the same model operating truly online: Shared for
	// the observation window, then a mid-run re-bind without data
	// migration. The gap to Keeper is the adaptation cost the paper does
	// not charge.
	KeeperOnline LatencyRow

	// Oracle is the best static strategy found by exhaustive search;
	// OracleName names it. It bounds what any allocator could achieve.
	Oracle     LatencyRow
	OracleName string

	// ImprovementPct is the total-latency improvement of SSDKeeper's
	// channel allocation over Shared, the paper's headline metric.
	ImprovementPct float64
	// HybridDeltaPct is the extra improvement from the hybrid page
	// allocator (negative when it hurts; on a seasoned device dynamic
	// allocation scatters overwrites and raises GC write amplification —
	// see EXPERIMENTS.md).
	HybridDeltaPct float64
}

// Fig5Table5 reproduces the performance analysis (Section V.C): the four
// Table IV mixes of synthetic Table II workloads replayed under Shared,
// Isolated, SSDKeeper, and SSDKeeper with the hybrid page allocator, plus
// the exhaustive optimum over all 42 strategies. One dataset.Labeler.Costs
// call per mix prices Shared, Isolated and the optimum.
func Fig5Table5(ctx context.Context, env Env, scale Scale, model *nn.Network) ([]MixReport, error) {
	if err := validateScale(scale); err != nil {
		return nil, err
	}
	profiles := trace.TableII(scale.TableIIScale, env.Device.PageSize, scale.Seed)
	shared := alloc.Index(env.Strategies, alloc.Strategy{Kind: alloc.Shared})
	isolated := alloc.Index(env.Strategies, alloc.Strategy{Kind: alloc.Isolated})
	labeler := env.labeler(env.Strategies, scale.Workers)
	runner := simrun.NewRunner()
	var reports []MixReport
	for mi, names := range trace.Mixes() {
		mix, err := trace.BuildMix(names, profiles, scale.MixHead)
		if err != nil {
			return nil, err
		}
		report := MixReport{Name: fmt.Sprintf("Mix%d", mi+1), Workloads: names}

		// Baselines and the optimum bind groups by the tenants' true
		// dominance.
		traits := traitsOf(names, profiles)
		costs, err := labeler.Costs(ctx, mix, traits, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", report.Name, err)
		}
		if costs[shared].Infeasible || costs[isolated].Infeasible {
			return nil, fmt.Errorf("%s baselines: %w", report.Name, ftl.ErrDeviceFull)
		}
		report.Shared = toRow(costs[shared].Device)
		report.Isolated = toRow(costs[isolated].Device)
		best := 0
		for si, c := range costs {
			if c.Total() < costs[best].Total() {
				best = si
			}
		}
		report.Oracle = toRow(costs[best].Device)
		report.OracleName = env.Strategies[best].Name(env.Device.Channels)

		// Observation pass: the real online mechanism collects the
		// features and predicts (also yielding the online-adaptation
		// number).
		k, err := NewKeeper(env, model)
		if err != nil {
			return nil, err
		}
		rep, err := k.RunContext(ctx, mix)
		if err != nil {
			return nil, fmt.Errorf("%s keeper: %w", report.Name, err)
		}
		report.KeeperOnline = toRow(rep.Result.Device)
		chosen := rep.Chosen()
		report.Chosen = chosen.Name(env.Device.Channels)
		chosenTraits := traits
		if len(rep.Switches) > 0 {
			report.Vector = rep.Switches[0].Vector
			chosenTraits = report.Vector.Traits()
		}

		// Evaluation passes, per the paper: the chosen strategy runs
		// the whole mix, without and with the hybrid page allocator.
		keeperRes, err := env.runOne(ctx, runner, chosen, chosenTraits, false, mix)
		if err != nil {
			return nil, fmt.Errorf("%s chosen %s: %w", report.Name, report.Chosen, err)
		}
		report.Keeper = toRow(keeperRes.Device)
		hybridRes, err := env.runOne(ctx, runner, chosen, chosenTraits, true, mix)
		if err != nil {
			return nil, fmt.Errorf("%s chosen %s hybrid: %w", report.Name, report.Chosen, err)
		}
		report.KeeperHybrid = toRow(hybridRes.Device)
		report.ImprovementPct = 100 * (report.Shared.TotalUs - report.Keeper.TotalUs) / report.Shared.TotalUs
		report.HybridDeltaPct = 100 * (report.Keeper.TotalUs - report.KeeperHybrid.TotalUs) / report.Keeper.TotalUs
		reports = append(reports, report)
	}
	return reports, nil
}

// traitsOf derives each tenant's write dominance from its profile.
func traitsOf(names [4]string, profiles map[string]trace.Profile) []alloc.TenantTraits {
	traits := make([]alloc.TenantTraits, len(names))
	for i, n := range names {
		traits[i] = alloc.TenantTraits{WriteDominated: profiles[n].WriteRatio >= 0.5}
	}
	return traits
}

// RenderTable5 formats the Table V rows.
func RenderTable5(reports []MixReport) string {
	var b strings.Builder
	b.WriteString("Table V: mixed workload characteristics and SSDKeeper channel allocation\n")
	fmt.Fprintf(&b, "%-6s %-34s %-40s %s\n", "Mix", "Workloads", "Collected features", "Chosen")
	for _, r := range reports {
		fmt.Fprintf(&b, "%-6s %-34s %-40s %s\n",
			r.Name, strings.Join(r.Workloads[:], ","), r.Vector.String(), r.Chosen)
	}
	return b.String()
}

// RenderFig5 formats the Figure 5 latency comparison, normalized to Shared
// as in the paper.
func RenderFig5(reports []MixReport) string {
	var b strings.Builder
	panels := []struct {
		title string
		pick  func(LatencyRow) float64
	}{
		{"(a) write latency (us)", func(l LatencyRow) float64 { return l.WriteUs }},
		{"(b) read latency (us)", func(l LatencyRow) float64 { return l.ReadUs }},
		{"(c) total latency (us)", func(l LatencyRow) float64 { return l.TotalUs }},
	}
	for _, panel := range panels {
		fmt.Fprintf(&b, "Figure 5%s\n", panel.title)
		fmt.Fprintf(&b, "%-6s %10s %10s %10s %14s %13s %16s\n",
			"Mix", "Shared", "Isolated", "SSDKeeper", "SSDKeeper+hyb", "(online)", "Oracle")
		for _, r := range reports {
			fmt.Fprintf(&b, "%-6s %10.1f %10.1f %10.1f %14.1f %13.1f %10.1f (%s)\n",
				r.Name, panel.pick(r.Shared), panel.pick(r.Isolated), panel.pick(r.Keeper),
				panel.pick(r.KeeperHybrid), panel.pick(r.KeeperOnline), panel.pick(r.Oracle), r.OracleName)
		}
		b.WriteString("\n")
	}
	var sum, hybSum float64
	for _, r := range reports {
		fmt.Fprintf(&b, "%s: SSDKeeper improves total latency over Shared by %.1f%% (hybrid page allocation: %+.1f%%)\n",
			r.Name, r.ImprovementPct, r.HybridDeltaPct)
		sum += r.ImprovementPct
		hybSum += r.HybridDeltaPct
	}
	if n := float64(len(reports)); n > 0 {
		fmt.Fprintf(&b, "average improvement: %.1f%% (paper: 24%%); hybrid page allocation delta: %+.1f%% (paper: +2.1%%)\n",
			sum/n, hybSum/n)
	}
	return b.String()
}
