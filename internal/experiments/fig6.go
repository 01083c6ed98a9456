package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/nn"
	"ssdkeeper/internal/policy"
	"ssdkeeper/internal/workload"
)

// Fig6Cell is one probed point of the Figure 6 strategy map.
type Fig6Cell struct {
	Intensity            int
	TotalWriteProportion float64
	Strategy             string // full strategy name
	Simplified           string // the paper's collapsed notation (see SimplifyName)
}

// Fig6 reproduces the channel-allocation analysis (Section V.D): for every
// intensity level 0..19, it draws random 4-tenant feature vectors spanning
// the write-proportion axis, asks the trained model for a strategy, and
// emits (intensity, total write proportion, strategy) cells.
func Fig6(env Env, scale Scale, model *nn.Network) ([]Fig6Cell, error) {
	pol, err := policy.NewANN(model, env.Strategies)
	if err != nil {
		return nil, err
	}
	return Fig6Policy(env, scale, pol)
}

// Fig6Policy is Fig6 over any decision policy (a loaded checkpoint, a
// pinned strategy): the probed strategy map shows whatever brain the policy
// wraps.
func Fig6Policy(env Env, scale Scale, pol policy.Policy) ([]Fig6Cell, error) {
	if err := validateScale(scale); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(scale.Seed + 6))
	var cells []Fig6Cell
	for level := 0; level < features.Levels; level++ {
		for p := 0; p < scale.Fig6PerLevel; p++ {
			spec := workload.RandomMixSpec(rng, 1, env.SaturationIOPS)
			ratios := make([]float64, len(spec.Tenants))
			shares := make([]float64, len(spec.Tenants))
			for i, t := range spec.Tenants {
				ratios[i] = t.WriteRatio
				shares[i] = t.Share
			}
			vec, err := features.FromSpecShares(level, ratios, shares)
			if err != nil {
				return nil, err
			}
			s, err := pol.Decide(vec)
			if err != nil {
				return nil, err
			}
			var wr [features.MaxTenants]float64
			copy(wr[:], ratios)
			cells = append(cells, Fig6Cell{
				Intensity:            level,
				TotalWriteProportion: vec.TotalWriteProportion(wr),
				Strategy:             s.Name(env.Device.Channels),
				Simplified:           SimplifyName(s, env.Device.Channels),
			})
		}
	}
	return cells, nil
}

// SimplifyName collapses four-way strategies the way Figure 6's legend does:
// 5:1:1:1, 1:5:1:1, 1:1:5:1 and 1:1:1:5 all render as "5:1:1:1" (parts
// sorted descending). Two-group and named strategies pass through.
func SimplifyName(s alloc.Strategy, channels int) string {
	if s.Kind != alloc.FourWay {
		return s.Name(channels)
	}
	parts := append([]int(nil), s.Parts...)
	sort.Sort(sort.Reverse(sort.IntSlice(parts)))
	strs := make([]string, len(parts))
	for i, p := range parts {
		strs[i] = strconv.Itoa(p)
	}
	return strings.Join(strs, ":")
}

// RenderFig6 formats the strategy map as CSV (one row per cell) followed by
// a per-level majority summary that shows the trend the paper reads off the
// scatter plot.
func RenderFig6(cells []Fig6Cell) string {
	var b strings.Builder
	b.WriteString("Figure 6: intensity_level,total_write_proportion,strategy\n")
	for _, c := range cells {
		fmt.Fprintf(&b, "%d,%.3f,%s\n", c.Intensity, c.TotalWriteProportion, c.Simplified)
	}
	b.WriteString("\nper-level dominant strategy (low/high write proportion halves):\n")
	type key struct {
		level int
		high  bool
	}
	counts := map[key]map[string]int{}
	for _, c := range cells {
		k := key{level: c.Intensity, high: c.TotalWriteProportion >= 0.5}
		if counts[k] == nil {
			counts[k] = map[string]int{}
		}
		counts[k][c.Simplified]++
	}
	for level := 0; level < features.Levels; level++ {
		low := dominant(counts[key{level, false}])
		high := dominant(counts[key{level, true}])
		fmt.Fprintf(&b, "level %2d: write<50%% -> %-10s write>=50%% -> %s\n", level, low, high)
	}
	return b.String()
}

func dominant(m map[string]int) string {
	best, bestN := "-", 0
	// Deterministic tie-break: lexicographic scan.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if m[k] > bestN {
			best, bestN = k, m[k]
		}
	}
	return best
}
