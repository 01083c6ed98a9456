package features

import (
	"math"
	"testing"
	"testing/quick"

	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/trace"
)

func TestVectorInputDimAndEncoding(t *testing.T) {
	v := Vector{
		Intensity:   5,
		ReadChar:    [MaxTenants]bool{true, false, true, false},
		Prop:        [MaxTenants]float64{0.1, 0.2, 0.3, 0.4},
		DeadDieFrac: 0.25, RetryRate: 0.5, WearSpread: 0.75,
	}
	in := v.Input()
	if len(in) != Dim || Dim != 12 {
		t.Fatalf("input dim %d, want Dim=12", len(in))
	}
	if math.Abs(in[0]-5.0/19.0) > 1e-12 {
		t.Errorf("intensity normalized to %v", in[0])
	}
	want := []float64{1, 0, 1, 0}
	for i := 0; i < 4; i++ {
		if in[1+i] != want[i] {
			t.Errorf("characteristic %d = %v, want %v", i, in[1+i], want[i])
		}
	}
	for i := 0; i < 4; i++ {
		if in[5+i] != v.Prop[i] {
			t.Errorf("proportion %d = %v", i, in[5+i])
		}
	}
	if in[9] != 0.25 || in[10] != 0.5 || in[11] != 0.75 {
		t.Errorf("health features = %v, want [0.25 0.5 0.75]", in[9:])
	}
}

func TestVectorStringMatchesPaperNotation(t *testing.T) {
	v := Vector{
		Intensity: 5,
		ReadChar:  [MaxTenants]bool{true, false, true, false},
		Prop:      [MaxTenants]float64{0.1, 0.2, 0.3, 0.4},
	}
	want := "[5] [1,0,1,0] [0.10,0.20,0.30,0.40]"
	if got := v.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestCollectorComputesProportionsAndCharacteristics(t *testing.T) {
	c := NewCollector(10000, 0)
	// Tenant 0: 3 writes, 1 read (write-dominated, 4/10 of traffic).
	// Tenant 1: 6 reads (read-dominated, 6/10).
	at := sim.Time(0)
	add := func(tenant int, op trace.Op) {
		at += sim.Millisecond
		c.Observe(trace.Record{Time: at, Tenant: tenant, Op: op, Size: 1})
	}
	add(0, trace.Write)
	add(0, trace.Write)
	add(0, trace.Write)
	add(0, trace.Read)
	for i := 0; i < 6; i++ {
		add(1, trace.Read)
	}
	v := c.Vector(at)
	if v.ReadChar[0] {
		t.Error("tenant 0 should be write-dominated")
	}
	if !v.ReadChar[1] {
		t.Error("tenant 1 should be read-dominated")
	}
	if math.Abs(v.Prop[0]-0.4) > 1e-12 || math.Abs(v.Prop[1]-0.6) > 1e-12 {
		t.Errorf("proportions %v", v.Prop)
	}
	// 10 requests over 10ms = 1000 IOPS; level = 20*1000/10000 = 2.
	if v.Intensity != 2 {
		t.Errorf("intensity %d, want 2", v.Intensity)
	}
	if c.Count() != 10 {
		t.Errorf("count %d", c.Count())
	}
}

func TestCollectorIntensitySaturatesAtTopLevel(t *testing.T) {
	c := NewCollector(1000, 0)
	at := sim.Time(0)
	for i := 0; i < 100; i++ {
		at += sim.Microsecond // absurdly fast
		c.Observe(trace.Record{Time: at, Tenant: 0, Op: trace.Read, Size: 1})
	}
	if v := c.Vector(at); v.Intensity != Levels-1 {
		t.Errorf("intensity %d, want %d", v.Intensity, Levels-1)
	}
}

func TestCollectorReset(t *testing.T) {
	c := NewCollector(1000, 0)
	c.Observe(trace.Record{Time: 1, Tenant: 0, Op: trace.Write, Size: 1})
	c.Reset(10 * sim.Millisecond)
	if c.Count() != 0 {
		t.Error("reset did not clear counts")
	}
	v := c.Vector(20 * sim.Millisecond)
	if v.Prop[0] != 0 {
		t.Error("reset did not clear proportions")
	}
}

// TestClearTenantRemovesContribution pins the migration contract: clearing a
// tenant mid-window removes exactly its reads, writes, and intensity
// contribution, leaving the other tenants' features untouched — as if the
// departed workload had never arrived this window.
func TestClearTenantRemovesContribution(t *testing.T) {
	c := NewCollector(10000, 0)
	at := sim.Time(0)
	add := func(tenant int, op trace.Op) {
		at += sim.Millisecond
		c.Observe(trace.Record{Time: at, Tenant: tenant, Op: op, Size: 1})
	}
	// Tenant 0: 2 writes. Tenant 1: 4 reads, 1 write. Tenant 2: 3 reads.
	add(0, trace.Write)
	add(0, trace.Write)
	for i := 0; i < 4; i++ {
		add(1, trace.Read)
	}
	add(1, trace.Write)
	add(2, trace.Read)
	add(2, trace.Read)
	add(2, trace.Read)

	c.ClearTenant(1)
	if c.Count() != 5 {
		t.Errorf("count after clear = %d, want 5", c.Count())
	}
	v := c.Vector(at)
	if v.Prop[1] != 0 {
		t.Errorf("cleared tenant kept proportion %v", v.Prop[1])
	}
	if math.Abs(v.Prop[0]-0.4) > 1e-12 || math.Abs(v.Prop[2]-0.6) > 1e-12 {
		t.Errorf("survivor proportions %v, want 0.4/0.6 of the remaining 5", v.Prop)
	}
	if v.ReadChar[0] || !v.ReadChar[2] {
		t.Errorf("survivor characteristics changed: %v", v.ReadChar)
	}
	// A cleared (empty) tenant reads as read-dominated: reads >= writes at 0.
	if !v.ReadChar[1] {
		t.Errorf("cleared tenant characteristic = write-dominated, want empty default")
	}

	// Re-attached traffic restarts from zero: one write makes it
	// write-dominated with only the new arrivals counted.
	add(1, trace.Write)
	v = c.Vector(at)
	if v.ReadChar[1] {
		t.Error("tenant 1 still read-dominated after restart; old reads leaked")
	}
	if math.Abs(v.Prop[1]-1.0/6.0) > 1e-12 {
		t.Errorf("restarted tenant proportion %v, want 1/6", v.Prop[1])
	}

	// Out-of-range tenants are a no-op (their arrivals cannot be attributed).
	before := c.Count()
	c.ClearTenant(-1)
	c.ClearTenant(MaxTenants)
	if c.Count() != before {
		t.Error("out-of-range ClearTenant changed the window")
	}
}

func TestCollectorIgnoresOutOfRangeTenantForPerTenantStats(t *testing.T) {
	c := NewCollector(1000, 0)
	c.Observe(trace.Record{Time: sim.Millisecond, Tenant: 9, Op: trace.Read, Size: 1})
	if c.Count() != 1 {
		t.Error("out-of-range tenant should still count toward intensity")
	}
	v := c.Vector(sim.Second)
	for i := 0; i < MaxTenants; i++ {
		if v.Prop[i] != 0 {
			t.Error("out-of-range tenant leaked into proportions")
		}
	}
}

func TestFromSpecShares(t *testing.T) {
	v, err := FromSpecShares(7, []float64{0.9, 0.1}, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if v.Intensity != 7 {
		t.Errorf("intensity %d", v.Intensity)
	}
	if v.ReadChar[0] || !v.ReadChar[1] {
		t.Errorf("characteristics %v", v.ReadChar)
	}
	if v.Prop[0] != 0.3 || v.Prop[1] != 0.7 {
		t.Errorf("props %v", v.Prop)
	}
	if _, err := FromSpecShares(25, []float64{1}, []float64{1}); err == nil {
		t.Error("level 25 accepted")
	}
	if _, err := FromSpecShares(1, []float64{1, 1}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FromSpecShares(1, make([]float64, 5), make([]float64, 5)); err == nil {
		t.Error("5 tenants accepted")
	}
}

func TestLevelOfBounds(t *testing.T) {
	if LevelOf(-5, 100) != 0 {
		t.Error("negative IOPS should be level 0")
	}
	if LevelOf(1e9, 100) != Levels-1 {
		t.Error("huge IOPS should clamp to top level")
	}
	if LevelOf(50, 0) != 0 {
		t.Error("zero saturation should be level 0")
	}
	if got := LevelOf(50, 100); got != 10 {
		t.Errorf("LevelOf(50,100) = %d, want 10", got)
	}
}

func TestLevelOfMonotoneProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		return LevelOf(x, 5000) <= LevelOf(y, 5000)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTotalWriteProportion(t *testing.T) {
	v := Vector{Prop: [MaxTenants]float64{0.5, 0.5, 0, 0}}
	got := v.TotalWriteProportion([MaxTenants]float64{1, 0, 0, 0})
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("total write proportion %v, want 0.5", got)
	}
}

func TestTraits(t *testing.T) {
	v := Vector{ReadChar: [MaxTenants]bool{true, false, true, false}}
	traits := v.Traits()
	if len(traits) != MaxTenants {
		t.Fatalf("traits len %d", len(traits))
	}
	for i := range traits {
		if traits[i].WriteDominated == v.ReadChar[i] {
			t.Errorf("trait %d inverted", i)
		}
	}
}
