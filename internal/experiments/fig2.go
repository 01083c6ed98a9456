package experiments

import (
	"context"
	"fmt"
	"strings"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/workload"
)

// Fig2Row is one (strategy, write-proportion) cell of Figure 2.
type Fig2Row struct {
	Strategy   string
	WriteUs    float64
	ReadUs     float64
	TotalUs    float64
	NormWrite  float64 // normalized to Shared at the same write proportion
	NormRead   float64
	NormTotal  float64
	Infeasible bool
}

// Fig2Point holds all strategies at one write proportion.
type Fig2Point struct {
	WriteProportion float64
	Rows            []Fig2Row
	Best            string // strategy with the lowest total latency
}

// Fig2Result is the full motivation sweep.
type Fig2Result struct {
	Points []Fig2Point
}

// Fig2 reproduces the motivation experiment (Section III, Figure 2): two
// tenants — one write-only, one read-only — share the SSD; the write
// proportion sweeps 10%..90% of a fixed total request count; every strategy
// in the two-tenant space is costed at each point (dataset.Labeler.Costs).
// Latencies are reported raw and normalized to Shared, exactly as the figure
// plots them.
func Fig2(ctx context.Context, env Env, scale Scale) (Fig2Result, error) {
	if err := validateScale(scale); err != nil {
		return Fig2Result{}, err
	}
	space := alloc.TwoTenantSpace(env.Device.Channels)
	labeler := env.labeler(space, scale.Workers)
	var out Fig2Result
	for i := 1; i <= 9; i++ {
		wp := float64(i) / 10
		spec := workload.MixSpec{
			Tenants: []workload.TenantSpec{
				{WriteRatio: 1, Share: wp},
				{WriteRatio: 0, Share: 1 - wp},
			},
			Requests: scale.Fig2Requests,
			IOPS:     scale.Fig2IOPS,
			Seed:     scale.Seed,
		}
		tr, err := spec.Build(env.Device.PageSize)
		if err != nil {
			return Fig2Result{}, err
		}
		costs, err := labeler.Costs(ctx, tr, spec.Traits(), nil)
		if err != nil {
			return Fig2Result{}, fmt.Errorf("fig2 wp=%.1f: %w", wp, err)
		}
		point := Fig2Point{WriteProportion: wp}
		var shared LatencyRow
		bestTotal := 0.0
		for si, c := range costs {
			name := space[si].Name(env.Device.Channels)
			if c.Infeasible {
				point.Rows = append(point.Rows, Fig2Row{Strategy: name, Infeasible: true})
				continue
			}
			lat := toRow(c.Device)
			if space[si].Kind == alloc.Shared {
				shared = lat
			}
			if point.Best == "" || lat.TotalUs < bestTotal {
				point.Best, bestTotal = name, lat.TotalUs
			}
			point.Rows = append(point.Rows, Fig2Row{
				Strategy: name,
				WriteUs:  lat.WriteUs,
				ReadUs:   lat.ReadUs,
				TotalUs:  lat.TotalUs,
			})
		}
		for ri := range point.Rows {
			r := &point.Rows[ri]
			if r.Infeasible {
				continue
			}
			r.NormWrite = safeDiv(r.WriteUs, shared.WriteUs)
			r.NormRead = safeDiv(r.ReadUs, shared.ReadUs)
			r.NormTotal = safeDiv(r.TotalUs, shared.TotalUs)
		}
		out.Points = append(out.Points, point)
	}
	return out, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Render formats the sweep as three aligned tables (write, read, total
// normalized latency), mirroring Figure 2's three panels.
func (r Fig2Result) Render() string {
	if len(r.Points) == 0 {
		return "fig2: no data\n"
	}
	var b strings.Builder
	panels := []struct {
		title string
		pick  func(Fig2Row) float64
	}{
		{"(a) normalized write latency", func(row Fig2Row) float64 { return row.NormWrite }},
		{"(b) normalized read latency", func(row Fig2Row) float64 { return row.NormRead }},
		{"(c) normalized total latency", func(row Fig2Row) float64 { return row.NormTotal }},
	}
	for _, panel := range panels {
		fmt.Fprintf(&b, "Figure 2%s (vs Shared)\n", panel.title)
		fmt.Fprintf(&b, "%-10s", "strategy")
		for _, p := range r.Points {
			fmt.Fprintf(&b, "%8.0f%%", p.WriteProportion*100)
		}
		b.WriteString("\n")
		for ri := range r.Points[0].Rows {
			fmt.Fprintf(&b, "%-10s", r.Points[0].Rows[ri].Strategy)
			for _, p := range r.Points {
				if p.Rows[ri].Infeasible {
					fmt.Fprintf(&b, "%9s", "inf")
					continue
				}
				fmt.Fprintf(&b, "%9.2f", panel.pick(p.Rows[ri]))
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	b.WriteString("best strategy per write proportion:")
	for _, p := range r.Points {
		fmt.Fprintf(&b, " %.0f%%=%s", p.WriteProportion*100, p.Best)
	}
	b.WriteString("\n")
	return b.String()
}
