package learn

import (
	"bytes"
	"testing"
	"time"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/policy"
	"ssdkeeper/internal/sim"
)

func testStrategies() []alloc.Strategy {
	return []alloc.Strategy{
		{Kind: alloc.Shared},
		{Kind: alloc.Isolated},
		{Kind: alloc.TwoGroup, WriteChannels: 6},
	}
}

// outcomeSample builds a deterministic outcome-bearing sample: operating
// point varies with point, the applied strategy is strat, and the epoch
// realized mean latency lat over 4 completions.
func outcomeSample(point, strat int, lat sim.Time) Sample {
	v := features.Vector{Intensity: point % features.Levels}
	v.ReadChar[point%features.MaxTenants] = true
	v.Prop[point%features.MaxTenants] = 1
	return Sample{
		At:            sim.Time(point) * 10 * sim.Millisecond,
		Epoch:         10 * sim.Millisecond,
		Vector:        v,
		Strategy:      testStrategies()[strat],
		StrategyIndex: strat,
		PolicyVersion: "v001",
		ShadowIndex:   -1,
		Completed:     4,
		LatencySum:    4 * lat,
	}
}

func TestSampleOutcomeHelpers(t *testing.T) {
	s := outcomeSample(1, 0, 250*sim.Microsecond)
	if got := s.MeanLatency(); got != 250*sim.Microsecond {
		t.Errorf("MeanLatency = %v, want 250µs", got)
	}
	if got := s.Throughput(); got != 400 {
		t.Errorf("Throughput = %v, want 400 req/s", got)
	}
	if !s.HasOutcome() {
		t.Error("sample with completions reports no outcome")
	}
	s.Completed, s.LatencySum = 0, 0
	if s.HasOutcome() || s.MeanLatency() != 0 {
		t.Error("empty epoch reports an outcome")
	}
}

// TestVectorKeyQuantization: nearby proportions collapse onto one operating
// point; distinct intensities, read characteristics, and coarse proportions
// do not.
func TestVectorKeyQuantization(t *testing.T) {
	base := features.Vector{Intensity: 7, Prop: [4]float64{0.5, 0.5, 0, 0}}
	near := base
	near.Prop[0], near.Prop[1] = 0.52, 0.51 // still rounds to 4/7 each
	if VectorKey(base) != VectorKey(near) {
		t.Error("nearby proportions map to different keys")
	}
	for _, mut := range []func(*features.Vector){
		func(v *features.Vector) { v.Intensity = 8 },
		func(v *features.Vector) { v.ReadChar[2] = true },
		func(v *features.Vector) { v.Prop[0], v.Prop[1] = 1, 0 },
	} {
		v := base
		mut(&v)
		if VectorKey(v) == VectorKey(base) {
			t.Errorf("mutation %+v did not change the key", v)
		}
	}
}

// TestReservoirDeterminism pins the reproducibility contract: the same stream
// through the same seed yields the same buffer, slot for slot.
func TestReservoirDeterminism(t *testing.T) {
	fill := func(seed int64) *Reservoir {
		r := NewReservoir(16, seed)
		for i := 0; i < 200; i++ {
			r.Add(outcomeSample(i, i%3, sim.Time(i)*sim.Microsecond))
		}
		return r
	}
	a, b := fill(7), fill(7)
	if a.Seen() != 200 || a.Len() != 16 {
		t.Fatalf("reservoir saw %d holds %d, want 200/16", a.Seen(), a.Len())
	}
	// Each stream position has a unique At, so At identifies the retained set.
	for i := range a.Samples() {
		if a.Samples()[i].At != b.Samples()[i].At {
			t.Fatalf("slot %d differs across identical runs", i)
		}
	}
	c := fill(8)
	same := true
	for i := range a.Samples() {
		if a.Samples()[i].At != c.Samples()[i].At {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical reservoirs")
	}
}

func TestOutcomeIndexBest(t *testing.T) {
	idx := NewOutcomeIndex(3)
	// Strategy 0 measures slow, strategy 2 fast, at the same operating point.
	for i := 0; i < 3; i++ {
		idx.Add(outcomeSample(1, 0, sim.Millisecond))
		idx.Add(outcomeSample(1, 2, 100*sim.Microsecond))
	}
	best, est, ok := idx.Best(VectorKey(outcomeSample(1, 0, 0).Vector))
	if !ok || best != 2 || est != float64(100*sim.Microsecond) {
		t.Errorf("Best = (%d, %v, %v), want (2, 100µs, true)", best, est, ok)
	}
	if _, _, ok := idx.Best(VectorKey(outcomeSample(2, 0, 0).Vector)); ok {
		t.Error("unmeasured operating point reports a best strategy")
	}
	// Outcome-free and out-of-space samples are ignored.
	empty := outcomeSample(3, 0, 0)
	empty.Completed = 0
	idx.Add(empty)
	oob := outcomeSample(3, 0, sim.Millisecond)
	oob.StrategyIndex = 9
	idx.Add(oob)
	if idx.Points() != 1 {
		t.Errorf("index holds %d points, want 1", idx.Points())
	}
}

// TestRetrainDeterministic pins the satellite acceptance: the same buffer and
// index under the same seed produce a bit-identical checkpoint.
func TestRetrainDeterministic(t *testing.T) {
	strategies := testStrategies()
	build := func() []byte {
		t.Helper()
		idx := NewOutcomeIndex(len(strategies))
		var buf []Sample
		for i := 0; i < 60; i++ {
			s := outcomeSample(i%5, i%3, sim.Time(100+10*(i%3))*sim.Microsecond)
			idx.Add(s)
			buf = append(buf, s)
		}
		net, meta, err := Retrain(buf, idx, TrainerConfig{Classes: len(strategies), Seed: 3},
			time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC), "v001")
		if err != nil {
			t.Fatal(err)
		}
		if meta.Source != policy.SourceOnline || meta.Parent != "v001" {
			t.Fatalf("meta provenance = %q/%q, want online/v001", meta.Source, meta.Parent)
		}
		var w bytes.Buffer
		if err := policy.SaveCheckpoint(&w, net, meta, 8, strategies); err != nil {
			t.Fatal(err)
		}
		return w.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Error("identical buffer, index, and seed produced different checkpoint bytes")
	}
}
