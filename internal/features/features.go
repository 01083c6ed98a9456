// Package features implements SSDKeeper's features collector (Section IV.B):
// it observes the request stream over a time window and produces the feature
// vector the strategy learner and channel allocator consume — the overall
// intensity level of the mixed workload (1-D), the read/write characteristic
// of each of the four workloads (4-D), and the request proportion of each
// workload (4-D) — extended with three device-health features.
package features

import (
	"fmt"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/trace"
)

// MaxTenants is the number of tenant slots in the paper's feature vector.
const MaxTenants = 4

// Levels is the number of intensity levels ("we divide it into twenty
// levels").
const Levels = 20

// Dim is the feature-vector dimensionality (schema v2): the paper's 1
// intensity + MaxTenants characteristics + MaxTenants proportions, plus three
// device-health features (dead-die fraction, read-retry rate, wear spread),
// all zero on a healthy device.
const Dim = 1 + 2*MaxTenants + 3

// Vector is the collected feature vector in the paper's notation, e.g.
// [5][1,0,1,0][0.1,0.2,0.3,0.4], extended with device-health features
// (schema v2). The health fields' zero values mean a perfectly healthy
// device, so workload-only call sites need no changes.
type Vector struct {
	Intensity int                 // 0..Levels-1
	ReadChar  [MaxTenants]bool    // true = read-dominated (paper: 1 read, 0 write)
	Prop      [MaxTenants]float64 // request proportions; sums to 1

	// Device-health features (zero = healthy).
	DeadDieFrac float64 // fraction of dies dead, [0,1]
	RetryRate   float64 // reads needing retry per observed request, clamped to [0,1]
	WearSpread  float64 // erase-count spread / wear threshold, clamped to [0,1]
}

// String renders the paper's bracketed form.
func (v Vector) String() string {
	c := [MaxTenants]int{}
	for i, r := range v.ReadChar {
		if r {
			c[i] = 1
		}
	}
	return fmt.Sprintf("[%d] [%d,%d,%d,%d] [%.2f,%.2f,%.2f,%.2f]",
		v.Intensity, c[0], c[1], c[2], c[3], v.Prop[0], v.Prop[1], v.Prop[2], v.Prop[3])
}

// Input converts the vector to the network's Dim inputs. Intensity is
// normalized to [0,1]; characteristics are 0/1; proportions pass through;
// health features are already in [0,1].
func (v Vector) Input() []float64 {
	return v.AppendInput(make([]float64, 0, Dim))
}

// AppendInput appends the network's Dim inputs to dst and returns the
// extended slice — the allocation-free form of Input for serving hot paths
// that reuse an encoding buffer across decisions.
func (v Vector) AppendInput(dst []float64) []float64 {
	dst = append(dst, float64(v.Intensity)/float64(Levels-1))
	for _, r := range v.ReadChar {
		if r {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	dst = append(dst, v.Prop[:]...)
	return append(dst, v.DeadDieFrac, v.RetryRate, v.WearSpread)
}

// Traits converts the observed characteristics into strategy-binding traits.
func (v Vector) Traits() []alloc.TenantTraits { return v.AppendTraits(nil) }

// AppendTraits appends the MaxTenants strategy-binding traits to dst and
// returns the extended slice, the allocation-free form of Traits.
func (v Vector) AppendTraits(dst []alloc.TenantTraits) []alloc.TenantTraits {
	for _, r := range v.ReadChar {
		dst = append(dst, alloc.TenantTraits{WriteDominated: !r})
	}
	return dst
}

// TotalWriteProportion returns the write fraction of the whole mix — the
// Y axis of the paper's Figure 6. It weights each tenant's write ratio by
// its proportion.
func (v Vector) TotalWriteProportion(writeRatio [MaxTenants]float64) float64 {
	total := 0.0
	for i := range writeRatio {
		total += v.Prop[i] * writeRatio[i]
	}
	return total
}

// Collector accumulates per-tenant request counts over a window.
// SaturationIOPS calibrates the intensity scale: a window whose aggregate
// request rate reaches SaturationIOPS (or more) is level Levels-1.
type Collector struct {
	SaturationIOPS float64

	start  sim.Time
	now    sim.Time
	reads  [MaxTenants]uint64
	writes [MaxTenants]uint64
	total  uint64
}

// NewCollector returns a collector with the window starting at start.
func NewCollector(saturationIOPS float64, start sim.Time) *Collector {
	return &Collector{SaturationIOPS: saturationIOPS, start: start, now: start}
}

// Observe records one request arrival. Tenants outside [0, MaxTenants) are
// counted toward the total intensity but not per-tenant features.
func (c *Collector) Observe(r trace.Record) {
	if r.Time > c.now {
		c.now = r.Time
	}
	c.total++
	if r.Tenant < 0 || r.Tenant >= MaxTenants {
		return
	}
	if r.Op == trace.Read {
		c.reads[r.Tenant]++
	} else {
		c.writes[r.Tenant]++
	}
}

// Count returns the number of requests observed in the current window.
func (c *Collector) Count() uint64 { return c.total }

// ClearTenant removes one tenant's contributions from the current window —
// used when a tenant migrates off a device mid-window, so the next epoch's
// vector does not adapt on a departed workload's features. Tenants outside
// the per-tenant slots contributed only to the total, which cannot be
// attributed back, so they are left alone.
func (c *Collector) ClearTenant(tenant int) {
	if tenant < 0 || tenant >= MaxTenants {
		return
	}
	c.total -= c.reads[tenant] + c.writes[tenant]
	c.reads[tenant] = 0
	c.writes[tenant] = 0
}

// Reset starts a new window at the given time.
func (c *Collector) Reset(at sim.Time) {
	*c = Collector{SaturationIOPS: c.SaturationIOPS, start: at, now: at}
}

// Vector computes the feature vector for the window observed so far, using
// now as the window end for the intensity rate.
func (c *Collector) Vector(now sim.Time) Vector {
	var v Vector
	span := now - c.start
	if span <= 0 {
		span = c.now - c.start
	}
	if span > 0 {
		iops := float64(c.total) / (float64(span) / float64(sim.Second))
		v.Intensity = LevelOf(iops, c.SaturationIOPS)
	}
	var perTenant [MaxTenants]uint64
	var counted uint64
	for i := 0; i < MaxTenants; i++ {
		perTenant[i] = c.reads[i] + c.writes[i]
		counted += perTenant[i]
		// Paper encoding: 1 = read-dominated, 0 = write-dominated.
		v.ReadChar[i] = c.reads[i] >= c.writes[i]
	}
	if counted > 0 {
		for i := 0; i < MaxTenants; i++ {
			v.Prop[i] = float64(perTenant[i]) / float64(counted)
		}
	}
	return v
}

// FromSpecShares builds the exact feature vector implied by ground-truth mix
// parameters (used for dataset generation, where the generator knows the
// true shares and ratios rather than estimating them from a window).
func FromSpecShares(intensityLevel int, writeRatios, shares []float64) (Vector, error) {
	if len(writeRatios) != len(shares) || len(writeRatios) > MaxTenants {
		return Vector{}, fmt.Errorf("features: %d ratios vs %d shares (max %d tenants)",
			len(writeRatios), len(shares), MaxTenants)
	}
	if intensityLevel < 0 || intensityLevel >= Levels {
		return Vector{}, fmt.Errorf("features: intensity level %d outside [0,%d)", intensityLevel, Levels)
	}
	var v Vector
	v.Intensity = intensityLevel
	for i := range writeRatios {
		v.ReadChar[i] = writeRatios[i] < 0.5
		v.Prop[i] = shares[i]
	}
	return v, nil
}

// LevelOf quantizes an IOPS value onto the intensity scale.
func LevelOf(iops, saturationIOPS float64) int {
	if saturationIOPS <= 0 {
		return 0
	}
	level := int(float64(Levels) * iops / saturationIOPS)
	if level >= Levels {
		level = Levels - 1
	}
	if level < 0 {
		level = 0
	}
	return level
}
