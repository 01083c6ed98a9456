package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ssdkeeper/internal/sim"
)

func TestAccBasics(t *testing.T) {
	var a Acc
	for _, d := range []sim.Time{10 * sim.Microsecond, 20 * sim.Microsecond, 30 * sim.Microsecond} {
		a.Add(d)
	}
	if a.Count != 3 {
		t.Errorf("count = %d, want 3", a.Count)
	}
	if got := a.Mean(); math.Abs(got-20) > 1e-9 {
		t.Errorf("mean = %v us, want 20", got)
	}
	if a.Min != 10*sim.Microsecond || a.Max != 30*sim.Microsecond {
		t.Errorf("min/max = %v/%v", a.Min, a.Max)
	}
	if got := a.Stddev(); math.Abs(got-10) > 1e-9 {
		t.Errorf("stddev = %v, want 10", got)
	}
}

func TestAccEmpty(t *testing.T) {
	var a Acc
	if a.Mean() != 0 || a.Stddev() != 0 {
		t.Error("empty accumulator should report zeros")
	}
}

func TestAccMerge(t *testing.T) {
	var a, b, all Acc
	samples := []sim.Time{5, 100, 42, 7, 999, 1}
	for i, s := range samples {
		all.Add(s)
		if i%2 == 0 {
			a.Add(s)
		} else {
			b.Add(s)
		}
	}
	a.Merge(b)
	if a.Count != all.Count || a.Sum != all.Sum || a.Min != all.Min || a.Max != all.Max {
		t.Errorf("merge mismatch: %+v vs %+v", a, all)
	}
	var empty Acc
	a.Merge(empty)
	if a.Count != all.Count {
		t.Error("merging empty changed the accumulator")
	}
}

func TestAccMergeProperty(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		var a, b, all Acc
		for _, x := range xs {
			a.Add(sim.Time(x))
			all.Add(sim.Time(x))
		}
		for _, y := range ys {
			b.Add(sim.Time(y))
			all.Add(sim.Time(y))
		}
		a.Merge(b)
		return a.Count == all.Count && a.Sum == all.Sum &&
			a.Min == all.Min && a.Max == all.Max &&
			math.Abs(a.Stddev()-all.Stddev()) < 1e-6*(1+all.Stddev())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLatencyTotalIsSumOfMeans(t *testing.T) {
	var l Latency
	l.Read.Add(10 * sim.Microsecond)
	l.Read.Add(30 * sim.Microsecond)
	l.Write.Add(100 * sim.Microsecond)
	if got := l.Total(); math.Abs(got-120) > 1e-9 {
		t.Errorf("total = %v, want 120 (20 read + 100 write)", got)
	}
}

func TestCollectorPerTenantAndDevice(t *testing.T) {
	c := NewCollector()
	c.AddRead(0, 10*sim.Microsecond)
	c.AddWrite(0, 100*sim.Microsecond)
	c.AddRead(3, 20*sim.Microsecond)
	if got := c.Device().Read.Count; got != 2 {
		t.Errorf("device reads = %d, want 2", got)
	}
	if got := c.Tenant(0).Write.Count; got != 1 {
		t.Errorf("tenant 0 writes = %d, want 1", got)
	}
	if got := c.Tenant(3).Read.Mean(); math.Abs(got-20) > 1e-9 {
		t.Errorf("tenant 3 read mean = %v", got)
	}
	if l := c.Tenant(9); l.Read.Count != 0 || l.Write.Count != 0 {
		t.Error("unknown tenant should be zero")
	}
	ids := c.Tenants()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 3 {
		t.Errorf("tenants = %v, want [0 3]", ids)
	}
	if !strings.Contains(c.String(), "tenant 3") {
		t.Error("String() should mention tenant 3")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal values index %v, want 1", got)
	}
	// One tenant dominating: index approaches 1/n.
	if got := JainIndex([]float64{1000, 0.001, 0.001, 0.001}); got > 0.26 {
		t.Errorf("dominated index %v, want about 0.25", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Errorf("empty index %v", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero index %v, want 1", got)
	}
	// Scale invariance.
	a := JainIndex([]float64{1, 2, 3})
	b := JainIndex([]float64{10, 20, 30})
	if math.Abs(a-b) > 1e-12 {
		t.Error("Jain index not scale invariant")
	}
}

func TestCollectorFairness(t *testing.T) {
	c := NewCollector()
	if c.Fairness() != 0 {
		t.Error("empty collector fairness should be 0")
	}
	c.AddRead(0, 100*sim.Microsecond)
	c.AddRead(1, 100*sim.Microsecond)
	if got := c.Fairness(); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal tenants fairness %v", got)
	}
	c.AddWrite(1, 100*sim.Millisecond)
	if got := c.Fairness(); got > 0.6 {
		t.Errorf("skewed tenants fairness %v, want well below 1", got)
	}
}

func TestAccSnapshotIsolatesHistogram(t *testing.T) {
	var a Acc
	a.Add(100)
	snap := a.Snapshot()
	a.Reset()
	a.Add(1)
	if snap.Count != 1 || snap.P99() < 100 {
		t.Errorf("snapshot mutated by reset+add: count=%d p99=%v", snap.Count, snap.P99())
	}
	if a.Count != 1 || a.Min != 1 {
		t.Errorf("reset acc wrong: count=%d min=%v", a.Count, a.Min)
	}
}

// A Reset collector must be observably identical to a fresh one: same tenant
// set, zero device totals, and reusable without cross-run bleed.
func TestCollectorResetBehavesFresh(t *testing.T) {
	c := NewCollector()
	c.AddRead(3, 100)
	c.AddWrite(5, 200)
	c.Reset()
	if got := c.Tenants(); len(got) != 0 {
		t.Fatalf("tenants after reset = %v, want none", got)
	}
	if d := c.Device(); d.Read.Count != 0 || d.Write.Count != 0 {
		t.Fatalf("device totals survived reset: %+v", d)
	}
	// Second run on the reused collector matches a fresh collector.
	fresh := NewCollector()
	for _, col := range []*Collector{c, fresh} {
		col.AddRead(1, 50)
		col.AddRead(1, 150)
		col.AddWrite(2, 300)
	}
	if got, want := c.Tenant(1).Read.Mean(), fresh.Tenant(1).Read.Mean(); got != want {
		t.Errorf("tenant mean on reused = %v, fresh = %v", got, want)
	}
	if got, want := c.Device().Total(), fresh.Device().Total(); got != want {
		t.Errorf("device total on reused = %v, fresh = %v", got, want)
	}
	if got, want := len(c.Tenants()), len(fresh.Tenants()); got != want {
		t.Errorf("tenant count on reused = %d, fresh = %d", got, want)
	}
}
