// Package workload builds the multi-tenant workloads the motivation
// experiment (Figure 2), the label-generation pipeline, and the evaluation
// mixes share; internal/simrun runs them on the simulated SSD.
package workload

import (
	"fmt"
	"math/rand"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
)

// TenantSpec describes one tenant of a synthetic mixed workload.
type TenantSpec struct {
	WriteRatio float64 // fraction of this tenant's requests that write
	Share      float64 // this tenant's fraction of total requests
}

// WriteDominated reports whether the tenant writes more than it reads (the
// paper's binary read/write characteristic).
func (t TenantSpec) WriteDominated() bool { return t.WriteRatio >= 0.5 }

// MixSpec describes a synthetic mixed workload by exactly the quantities the
// features collector observes: total intensity and per-tenant read/write
// mix and share. This is the knob the paper turns to synthesize its 5,000
// training workloads ("we mainly change the read/write characteristics and
// read/write proportion").
type MixSpec struct {
	Tenants  []TenantSpec
	Requests int     // total requests across tenants
	IOPS     float64 // aggregate arrival rate
	Seed     int64
}

// Validate reports the first inconsistency.
func (m MixSpec) Validate() error {
	if len(m.Tenants) == 0 {
		return fmt.Errorf("workload: mix has no tenants")
	}
	if m.Requests <= 0 {
		return fmt.Errorf("workload: mix needs positive request count")
	}
	if m.IOPS <= 0 {
		return fmt.Errorf("workload: mix needs positive IOPS")
	}
	sum := 0.0
	for i, t := range m.Tenants {
		if t.WriteRatio < 0 || t.WriteRatio > 1 {
			return fmt.Errorf("workload: tenant %d write ratio %v outside [0,1]", i, t.WriteRatio)
		}
		if t.Share < 0 {
			return fmt.Errorf("workload: tenant %d negative share", i)
		}
		sum += t.Share
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload: tenant shares sum to %v, want 1", sum)
	}
	return nil
}

// Traits returns the alloc binding traits implied by the spec.
func (m MixSpec) Traits() []alloc.TenantTraits {
	out := make([]alloc.TenantTraits, len(m.Tenants))
	for i, t := range m.Tenants {
		out[i] = alloc.TenantTraits{WriteDominated: t.WriteDominated()}
	}
	return out
}

// Build synthesizes the mixed trace: each tenant gets Share*Requests
// requests at Share*IOPS, then the per-tenant streams are merged
// chronologically.
func (m MixSpec) Build(pageSize int) (trace.Trace, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	parts := make([]trace.Trace, 0, len(m.Tenants))
	for i, t := range m.Tenants {
		count := int(float64(m.Requests)*t.Share + 0.5)
		if count == 0 {
			continue
		}
		iops := m.IOPS * t.Share
		if iops <= 0 {
			iops = 1
		}
		p := trace.Profile{
			Name:       fmt.Sprintf("tenant%d", i),
			WriteRatio: t.WriteRatio,
			Count:      count,
			IOPS:       iops,
			Address:    64 << 20, // hot working set; overwrites keep GC live
			SeqProb:    0.3,
			MinPages:   1,
			MaxPages:   4,
			PageSize:   pageSize,
			Burstiness: 0.8,
			Seed:       m.Seed + int64(i)*104729,
		}
		tr, err := trace.Generate(p)
		if err != nil {
			return nil, err
		}
		parts = append(parts, tr.Retag(i))
	}
	return trace.Merge(parts...), nil
}

// RandomMixSpec draws a 4-tenant mix with random read/write characteristics,
// random shares, and a random intensity — the data-set sampling procedure of
// Section V.B. maxIOPS bounds the intensity range (level 19).
func RandomMixSpec(rng *rand.Rand, requests int, maxIOPS float64) MixSpec {
	const tenants = 4
	spec := MixSpec{
		Requests: requests,
		// Keep away from 0 IOPS: drop the bottom 2% of the range.
		IOPS: maxIOPS * (0.02 + 0.98*rng.Float64()),
		Seed: rng.Int63(),
	}
	shares := make([]float64, tenants)
	sum := 0.0
	for i := range shares {
		shares[i] = 0.05 + rng.Float64()
		sum += shares[i]
	}
	for i := range shares {
		shares[i] /= sum
	}
	for i := 0; i < tenants; i++ {
		// Workloads are read- or write-dominated, never balanced
		// (paper: "each workload is read-dominated or write-dominated").
		var wr float64
		if rng.Intn(2) == 0 {
			wr = 0.75 + 0.25*rng.Float64() // write-dominated: 75-100% writes
		} else {
			wr = 0.25 * rng.Float64() // read-dominated: 0-25% writes
		}
		spec.Tenants = append(spec.Tenants, TenantSpec{WriteRatio: wr, Share: shares[i]})
	}
	return spec
}

// TraitsFromTrace classifies each of the first n tenants of a trace by its
// observed write ratio, producing the binding traits a strategy needs.
// Tenants with no requests default to read-dominated.
func TraitsFromTrace(t trace.Trace, tenants int) []alloc.TenantTraits {
	writes := make([]int, tenants)
	total := make([]int, tenants)
	for _, r := range t {
		if r.Tenant >= 0 && r.Tenant < tenants {
			total[r.Tenant]++
			if r.Op == trace.Write {
				writes[r.Tenant]++
			}
		}
	}
	traits := make([]alloc.TenantTraits, tenants)
	for i := range traits {
		traits[i] = alloc.TenantTraits{WriteDominated: total[i] > 0 && writes[i]*2 >= total[i]}
	}
	return traits
}

// TotalLatency is the paper's objective: the sum of mean read and mean write
// response latency for a run, in microseconds.
func TotalLatency(r ssd.Result) float64 { return r.Device.Total() }

// SaturationIOPS estimates the request rate at which the device saturates,
// used to scale the intensity axis of the data-set sampler and the features
// collector. It assumes the average request touches avgPages pages and the
// mix is half reads: each page op occupies its die for roughly the mean of
// tR and tPROG plus a transfer.
func SaturationIOPS(cfg nand.Config, avgPages float64) float64 {
	perPage := (cfg.ReadLatency + cfg.WriteLatency) / 2
	dieIOPS := float64(sim.Second) / float64(perPage+cfg.XferLatency)
	return float64(cfg.TotalDies()) * dieIOPS / avgPages
}
