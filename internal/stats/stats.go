// Package stats accumulates response-latency statistics per tenant and
// operation type, the quantities every figure in the paper is built from.
package stats

import (
	"fmt"
	"math"
	"strings"

	"ssdkeeper/internal/sim"
)

// Acc accumulates a stream of latency samples: moments plus a log-scaled
// histogram for percentiles.
type Acc struct {
	Count uint64
	Sum   sim.Time
	Min   sim.Time
	Max   sim.Time
	// sumSq accumulates squared microseconds for variance; float64 avoids
	// overflow on long runs.
	sumSq float64
	// hist is allocated on first Add; the zero Acc stays cheap to copy.
	hist *Histogram
}

// Add records one latency sample.
func (a *Acc) Add(d sim.Time) {
	if a.Count == 0 || d < a.Min {
		a.Min = d
	}
	if d > a.Max {
		a.Max = d
	}
	a.Count++
	a.Sum += d
	us := d.Micros()
	a.sumSq += us * us
	if a.hist == nil {
		a.hist = &Histogram{}
	}
	a.hist.Add(d)
}

// Merge folds other into a.
func (a *Acc) Merge(other Acc) {
	if other.Count == 0 {
		return
	}
	if a.Count == 0 || other.Min < a.Min {
		a.Min = other.Min
	}
	if other.Max > a.Max {
		a.Max = other.Max
	}
	a.Count += other.Count
	a.Sum += other.Sum
	a.sumSq += other.sumSq
	if other.hist != nil {
		if a.hist == nil {
			a.hist = &Histogram{}
		}
		a.hist.Merge(other.hist)
	}
}

// Reset clears the accumulator in place, keeping the histogram's backing
// storage for reuse.
func (a *Acc) Reset() {
	h := a.hist
	*a = Acc{}
	if h != nil {
		h.Reset()
		a.hist = h
	}
}

// Snapshot returns an independent copy of the accumulator: the histogram is
// cloned, so later Reset/Add calls on a (a reused per-run accumulator)
// cannot mutate the snapshot.
func (a Acc) Snapshot() Acc {
	a.hist = a.hist.Clone()
	return a
}

// Quantile returns an upper bound for the q-quantile of the recorded
// latencies (0 for an empty accumulator).
func (a Acc) Quantile(q float64) sim.Time {
	if a.hist == nil {
		return 0
	}
	return a.hist.Quantile(q)
}

// P50 returns the median latency upper bound.
func (a Acc) P50() sim.Time { return a.Quantile(0.50) }

// P99 returns the 99th-percentile latency upper bound.
func (a Acc) P99() sim.Time { return a.Quantile(0.99) }

// Mean returns the average latency in microseconds (0 if empty).
func (a Acc) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum.Micros() / float64(a.Count)
}

// Stddev returns the sample standard deviation in microseconds.
func (a Acc) Stddev() float64 {
	if a.Count < 2 {
		return 0
	}
	n := float64(a.Count)
	mean := a.Mean()
	v := (a.sumSq - n*mean*mean) / (n - 1)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Latency groups read and write accumulators, mirroring the paper's split
// into read response latency and write response latency.
type Latency struct {
	Read  Acc
	Write Acc
}

// Total returns the paper's "total response latency": the sum of the read
// and write average latencies, in microseconds. (Section III.B: "We utilize
// the sum of write response latency and read response latency to evaluate
// the overall performance.")
func (l Latency) Total() float64 { return l.Read.Mean() + l.Write.Mean() }

// Merge folds other into l.
func (l *Latency) Merge(other Latency) {
	l.Read.Merge(other.Read)
	l.Write.Merge(other.Write)
}

// Reset clears both accumulators in place.
func (l *Latency) Reset() {
	l.Read.Reset()
	l.Write.Reset()
}

// Snapshot returns an independent copy (histograms cloned).
func (l Latency) Snapshot() Latency {
	return Latency{Read: l.Read.Snapshot(), Write: l.Write.Snapshot()}
}

// Moments keeps only the Count and Sum of both accumulators: all that Total,
// the means and Merge of moments read, with no histogram to clone.
func (l Latency) Moments() Latency {
	return Latency{
		Read:  Acc{Count: l.Read.Count, Sum: l.Read.Sum},
		Write: Acc{Count: l.Write.Count, Sum: l.Write.Sum},
	}
}

// Collector accumulates per-tenant latencies for one simulation run. A
// collector is reusable: Reset clears it for the next run while keeping the
// per-tenant accumulators (and their histogram storage) in place, so loops
// that run thousands of simulations (the 42-strategy label loop) allocate no
// fresh accumulators after the first run.
type Collector struct {
	// perTenant is indexed by tenant id (non-negative) and grows to the
	// largest id seen; the device refuses ids at or above ftl.MaxTenants
	// before they get here. A tenant counts as observed once its
	// accumulator holds a sample.
	perTenant []Latency
	device    Latency
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// AddRead records a completed read for a tenant.
func (c *Collector) AddRead(tenant int, d sim.Time) {
	c.tenant(tenant).Read.Add(d)
	c.device.Read.Add(d)
}

// AddWrite records a completed write for a tenant.
func (c *Collector) AddWrite(tenant int, d sim.Time) {
	c.tenant(tenant).Write.Add(d)
	c.device.Write.Add(d)
}

func (c *Collector) tenant(id int) *Latency {
	if id >= len(c.perTenant) {
		c.perTenant = append(c.perTenant, make([]Latency, id+1-len(c.perTenant))...)
	}
	return &c.perTenant[id]
}

// Reset clears the collector for a new run. The set of observed tenants
// (and therefore Tenants and the per-tenant result map) starts empty,
// exactly as on a fresh collector.
func (c *Collector) Reset() {
	for i := range c.perTenant {
		c.perTenant[i].Reset()
	}
	c.device.Reset()
}

// Device returns the aggregate latency over all tenants.
func (c *Collector) Device() Latency { return c.device }

// Tenant returns the latency accumulated for one tenant (zero value if the
// tenant issued no requests).
func (c *Collector) Tenant(id int) Latency {
	if id >= 0 && id < len(c.perTenant) {
		return c.perTenant[id]
	}
	return Latency{}
}

// Tenants returns the tenant IDs observed, ascending.
func (c *Collector) Tenants() []int {
	var ids []int
	for id := range c.perTenant {
		if l := &c.perTenant[id]; l.Read.Count+l.Write.Count > 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// String renders a compact multi-line summary.
func (c *Collector) String() string {
	var b strings.Builder
	d := c.Device()
	fmt.Fprintf(&b, "device: read %.1fus (n=%d) write %.1fus (n=%d) total %.1fus\n",
		d.Read.Mean(), d.Read.Count, d.Write.Mean(), d.Write.Count, d.Total())
	for _, id := range c.Tenants() {
		l := c.Tenant(id)
		fmt.Fprintf(&b, "tenant %d: read %.1fus (n=%d) write %.1fus (n=%d)\n",
			id, l.Read.Mean(), l.Read.Count, l.Write.Mean(), l.Write.Count)
	}
	return b.String()
}

// JainIndex computes Jain's fairness index over a set of per-tenant
// quantities: (sum x)^2 / (n * sum x^2). It is 1.0 when all tenants see the
// same value and approaches 1/n as one tenant dominates — the standard
// multi-tenant isolation metric.
func JainIndex(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, v := range values {
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 1 // all zeros: perfectly equal
	}
	return sum * sum / (float64(len(values)) * sumSq)
}

// Fairness returns Jain's index over the tenants' total (read mean + write
// mean) latencies — 1.0 means every tenant experiences the device equally.
func (c *Collector) Fairness() float64 {
	ids := c.Tenants()
	if len(ids) == 0 {
		return 0
	}
	totals := make([]float64, len(ids))
	for i, id := range ids {
		totals[i] = c.Tenant(id).Total()
	}
	return JainIndex(totals)
}
