package dataset

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/ftl"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/workload"
)

// quickConfig returns a dataset configuration small enough for unit tests:
// the two-tenant strategy space padded to 4 tenants is not valid here, so we
// use a hand-picked subset of the four-tenant space.
func quickConfig() Config {
	cfg := nand.EvalConfig()
	return Config{
		Device:  cfg,
		Options: ssd.DefaultOptions(),
		Strategies: []alloc.Strategy{
			{Kind: alloc.Shared},
			{Kind: alloc.Isolated},
			{Kind: alloc.TwoGroup, WriteChannels: 6},
			{Kind: alloc.FourWay, Parts: []int{5, 1, 1, 1}},
		},
		Workloads: 4,
		Requests:  800,
		MaxIOPS:   16000,
		Season:    simrun.DefaultSeasoning(),
		Seed:      7,
		Workers:   2,
	}
}

func TestGenerateShapesAndDeterminism(t *testing.T) {
	cfg := quickConfig()
	var calls atomic.Int64 // progress runs on the worker goroutines
	a, err := Generate(context.Background(), cfg, func(done, total int) {
		calls.Add(1)
		if total != cfg.Workloads {
			t.Errorf("progress total %d", total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != cfg.Workloads {
		t.Fatalf("got %d samples", len(a))
	}
	if n := calls.Load(); n != int64(cfg.Workloads) {
		t.Errorf("progress called %d times", n)
	}
	b, err := Generate(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Label != b[i].Label {
			t.Fatalf("sample %d label differs between runs", i)
		}
		for j := range a[i].Latencies {
			if a[i].Latencies[j] != b[i].Latencies[j] {
				t.Fatalf("sample %d latency %d differs", i, j)
			}
		}
	}
	for i, s := range a {
		if s.Label < 0 || s.Label >= len(cfg.Strategies) {
			t.Errorf("sample %d label %d out of range", i, s.Label)
		}
		if len(s.Latencies) != len(cfg.Strategies) {
			t.Errorf("sample %d has %d latencies", i, len(s.Latencies))
		}
		// The label must be within the tie tolerance of the argmin.
		best := s.Latencies[0]
		for _, l := range s.Latencies {
			if l < best {
				best = l
			}
		}
		if s.Latencies[s.Label] > best*1.02+1e-9 {
			t.Errorf("sample %d: label %d (%.1f) outside 2%% of optimum (%.1f)",
				i, s.Label, s.Latencies[s.Label], best)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := quickConfig()
	bad.Workloads = 0
	if _, err := Generate(context.Background(), bad, nil); err == nil {
		t.Error("zero workloads accepted")
	}
	bad = quickConfig()
	bad.Strategies = nil
	if _, err := Generate(context.Background(), bad, nil); err == nil {
		t.Error("empty strategy space accepted")
	}
	bad = quickConfig()
	bad.MaxIOPS = 0
	if _, err := Generate(context.Background(), bad, nil); err == nil {
		t.Error("zero MaxIOPS accepted")
	}
	bad = quickConfig()
	bad.Requests = -1
	if _, err := Generate(context.Background(), bad, nil); err == nil {
		t.Error("negative requests accepted")
	}
	for _, f := range []float64{-1, 1.5, math.NaN()} {
		bad = quickConfig()
		bad.FaultFraction = f
		if _, err := Generate(context.Background(), bad, nil); err == nil {
			t.Errorf("fault fraction %v accepted", f)
		}
	}
}

// TestFaultFractionKeepsImmortalWorkloads: faults are drawn apart from the
// workload specs, so a faulted dataset differs from the immortal one at the
// same seed only in the samples that drew a fault — a faulted-versus-immortal
// comparison changes the faults and nothing else.
func TestFaultFractionKeepsImmortalWorkloads(t *testing.T) {
	cfg := quickConfig()
	immortal, err := Generate(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultFraction = 0.5
	faulted, err := Generate(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hit := -1
	for i := range faulted {
		if !reflect.DeepEqual(faulted[i].Spec, immortal[i].Spec) {
			t.Errorf("sample %d: spec changed under FaultFraction 0.5", i)
		}
		if faulted[i].Fault == nil {
			if !reflect.DeepEqual(faulted[i], immortal[i]) {
				t.Errorf("sample %d drew no fault but differs from the immortal sample", i)
			}
			continue
		}
		hit = i
		if want := 1 / float64(cfg.Device.TotalDies()); faulted[i].Vector.DeadDieFrac != want {
			t.Errorf("sample %d: DeadDieFrac %v, want %v (one dead die)", i, faulted[i].Vector.DeadDieFrac, want)
		}
	}
	if hit < 0 {
		t.Fatal("no sample drew a fault at FaultFraction 0.5")
	}

	var buf bytes.Buffer
	if err := Save(&buf, faulted[hit:hit+1]); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSamples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back[0].Fault, faulted[hit].Fault) {
		t.Errorf("fault plan did not survive Save/LoadSamples:\n got %+v\nwant %+v", back[0].Fault, faulted[hit].Fault)
	}
}

func TestGenerateCancellation(t *testing.T) {
	cfg := quickConfig()
	cfg.Workloads = 8

	// Already-cancelled context: nothing is produced.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Generate(ctx, cfg, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Generate returned %v, want context.Canceled", err)
	}

	// Cancel mid-run, from the first progress callback: Generate must stop
	// and report the cancellation, not a partial dataset.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	samples, err := Generate(ctx, cfg, func(done, total int) { cancel() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Generate returned %v, want context.Canceled", err)
	}
	if samples != nil {
		t.Errorf("cancelled Generate returned %d samples, want none", len(samples))
	}
}

// TestGenerateParallelWorkers exercises the fan-out with more workers than
// workloads would strictly need; run under -race it checks the shared
// progress counter and result slice for data races.
func TestGenerateParallelWorkers(t *testing.T) {
	cfg := quickConfig()
	cfg.Workloads = 6
	cfg.Workers = 4
	samples, err := Generate(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != cfg.Workloads {
		t.Fatalf("got %d samples, want %d", len(samples), cfg.Workloads)
	}
	for i, s := range samples {
		if len(s.Latencies) != len(cfg.Strategies) {
			t.Errorf("sample %d has %d latencies", i, len(s.Latencies))
		}
	}
}

// TestGenerateDeterministicAcrossWorkerCounts asserts the satellite
// guarantee: the same seed yields byte-identical samples regardless of how
// many workers labelled them (specs are pre-drawn from one PRNG; workers
// only consume them).
func TestGenerateDeterministicAcrossWorkerCounts(t *testing.T) {
	ref := quickConfig()
	ref.Workers = 1
	want, err := Generate(context.Background(), ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		cfg := quickConfig()
		cfg.Workers = workers
		got, err := Generate(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Vector != want[i].Vector || got[i].Label != want[i].Label {
				t.Fatalf("workers=%d: sample %d differs from single-worker run", workers, i)
			}
			for j := range want[i].Latencies {
				if got[i].Latencies[j] != want[i].Latencies[j] {
					t.Fatalf("workers=%d: sample %d latency %d differs", workers, i, j)
				}
			}
		}
	}
}

func TestLabelFeatureVectorMatchesSpec(t *testing.T) {
	cfg := quickConfig()
	rng := rand.New(rand.NewSource(9))
	spec := workload.RandomMixSpec(rng, cfg.Requests, cfg.MaxIOPS)
	s, err := Label(context.Background(), cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	wantLevel := features.LevelOf(spec.IOPS, cfg.MaxIOPS)
	if s.Vector.Intensity != wantLevel {
		t.Errorf("intensity %d, want %d", s.Vector.Intensity, wantLevel)
	}
	for i, tenant := range spec.Tenants {
		if s.Vector.ReadChar[i] != (tenant.WriteRatio < 0.5) {
			t.Errorf("tenant %d characteristic wrong", i)
		}
		if s.Vector.Prop[i] != tenant.Share {
			t.Errorf("tenant %d proportion %v, want %v", i, s.Vector.Prop[i], tenant.Share)
		}
	}
}

func TestToNN(t *testing.T) {
	samples := []Sample{
		{Vector: features.Vector{Intensity: 3}, Label: 1},
		{Vector: features.Vector{Intensity: 9}, Label: 0},
	}
	d := ToNN(samples)
	if d.Len() != 2 {
		t.Fatalf("len %d", d.Len())
	}
	if len(d.X[0]) != features.Dim {
		t.Errorf("input dim %d", len(d.X[0]))
	}
	if d.Y[0] != 1 || d.Y[1] != 0 {
		t.Errorf("labels %v", d.Y)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := quickConfig()
	cfg.Workloads = 2
	samples, err := Generate(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, samples); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSamples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(samples) {
		t.Fatalf("round trip %d vs %d samples", len(back), len(samples))
	}
	for i := range samples {
		if back[i].Label != samples[i].Label {
			t.Errorf("sample %d label changed", i)
		}
		if back[i].Vector != samples[i].Vector {
			t.Errorf("sample %d vector changed", i)
		}
	}
}

func TestLoadSamplesRejectsGarbage(t *testing.T) {
	if _, err := LoadSamples(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestLabelHistogram(t *testing.T) {
	samples := []Sample{{Label: 0}, {Label: 0}, {Label: 2}, {Label: 99}}
	h := LabelHistogram(samples, 3)
	if h[0] != 2 || h[1] != 0 || h[2] != 1 {
		t.Errorf("histogram %v", h)
	}
}

// Labels must not depend on how many workers fan the per-strategy loop out,
// nor on reusing one labeler's runners across calls.
func TestLabelDeterministicAcrossWorkerCounts(t *testing.T) {
	base := quickConfig()
	rng := rand.New(rand.NewSource(base.Seed))
	spec := workload.RandomMixSpec(rng, base.Requests, base.MaxIOPS)
	var want Sample
	for _, workers := range []int{1, 2, 3, 8} {
		cfg := base
		cfg.Workers = workers
		lab := NewLabeler(cfg)
		got, err := lab.Label(context.Background(), spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Second call on the same labeler reuses its runners (reset
		// engines and devices) and must reproduce the first exactly.
		again, err := lab.Label(context.Background(), spec)
		if err != nil {
			t.Fatalf("workers=%d relabel: %v", workers, err)
		}
		for i := range got.Latencies {
			if got.Latencies[i] != again.Latencies[i] {
				t.Fatalf("workers=%d: relabel on reused runners diverged at strategy %d: %v vs %v",
					workers, i, got.Latencies[i], again.Latencies[i])
			}
		}
		if workers == 1 {
			want = got
			continue
		}
		if got.Label != want.Label {
			t.Errorf("workers=%d label %d, workers=1 label %d", workers, got.Label, want.Label)
		}
		for i := range want.Latencies {
			if got.Latencies[i] != want.Latencies[i] {
				t.Errorf("workers=%d latency[%d] = %v, workers=1 = %v",
					workers, i, got.Latencies[i], want.Latencies[i])
			}
		}
	}
}

// Generate on one worker labels every workload on one runner, so most of its
// simulations rewind a reused device to its checkpoint, and each workload
// whose fault plan differs from the last one's rebuilds it. Every latency
// must be what a fresh runner measures for that workload and strategy.
func TestGenerateOneRunnerMatchesFreshRunners(t *testing.T) {
	cfg := quickConfig()
	cfg.Workloads = 8
	cfg.Workers = 1
	cfg.FaultFraction = 0.5
	samples, err := Generate(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulted := 0
	for i, s := range samples {
		opts := cfg.Options
		if s.Fault != nil {
			opts.FaultPlan = s.Fault
			faulted++
		}
		tr, err := s.Spec.Build(cfg.Device.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		for si, st := range cfg.Strategies {
			res, err := simrun.NewRunner().Run(context.Background(), simrun.Config{
				Device: cfg.Device, Options: opts, Strategy: st, Traits: s.Spec.Traits(),
				Hybrid: cfg.Hybrid, Season: cfg.Season,
			}, tr)
			want := Infeasible
			if err == nil {
				want = workload.TotalLatency(res.Result)
			} else if !errors.Is(err, ftl.ErrDeviceFull) {
				t.Fatal(err)
			}
			if s.Latencies[si] != want {
				t.Errorf("workload %d strategy %d: latency %v on the one runner, %v on a fresh one", i, si, s.Latencies[si], want)
			}
		}
	}
	if faulted == 0 || faulted == len(samples) {
		t.Fatalf("%d of %d workloads drew a fault plan; the test needs both kinds", faulted, len(samples))
	}
}

// TestCostsMatchWholeRuns labels over the full four-tenant space, where
// channel groups recur across strategies and Costs replays each once and
// composes the strategies from them. Every latency must be the one a fresh
// runner measures replaying the strategy whole: at two seeds, with the
// hybrid allocator, under read-priority arbitration, with several workers
// spreading the group replays, and on workloads that must not decompose
// (fault plans).
func TestCostsMatchWholeRuns(t *testing.T) {
	base := quickConfig()
	base.Strategies = alloc.FourTenantSpace(base.Device.Channels)
	base.Workloads = 3
	base.Requests = 600
	base.Workers = 1
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"seed2", func(c *Config) { c.Seed = 2 }},
		{"seed3-workers4", func(c *Config) { c.Seed, c.Workloads, c.Workers = 3, 2, 4 }},
		{"hybrid", func(c *Config) { c.Seed, c.Hybrid = 2, true }},
		// A workload that draws a fault plan must run whole: a die failure
		// rebuilds seasoning pages across channels, and the failed die and
		// the hashed read retries tie a group's cost to its channel set, not
		// just its channel count.
		{"faults", func(c *Config) { c.Seed, c.Workloads, c.Requests, c.FaultFraction = 2, 4, 2000, 0.5 }},
		{"readpriority", func(c *Config) { c.Seed, c.Options.ReadPriority = 2, true }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			c.mod(&cfg)
			samples, err := Generate(context.Background(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			composed, faulted := 0, 0
			for i, s := range samples {
				if s.Fault != nil {
					faulted++
				}
				n := checkWholeRuns(t, cfg, s)
				if n > 0 && s.Fault != nil {
					t.Errorf("workload %d: %d strategies composed from groups; a faulted workload must run every strategy whole", i, n)
				}
				if n > 0 {
					composed++
				}
			}
			if composed == 0 {
				t.Errorf("no workload was composed from groups")
			}
			if cfg.FaultFraction > 0 && (faulted == 0 || faulted == len(samples)) {
				t.Errorf("%d of %d workloads drew a fault plan; the case needs both kinds", faulted, len(samples))
			}
		})
	}

	// The 40th workload Generate draws at seed 2 with 2000 requests puts an
	// arrival of one tenant at the same nanosecond as a device event of
	// another. A group replayed on a filtered sub-trace fires its arrivals
	// in a different order against those events and moves five strategies'
	// latencies by 0.064 us; the full arrival stream keeps them exact.
	t.Run("arrival-tie", func(t *testing.T) {
		cfg := base
		cfg.Seed, cfg.Requests, cfg.Workers = 2, 2000, 2
		rng := rand.New(rand.NewSource(cfg.Seed))
		var spec workload.MixSpec
		for i := 0; i < 40; i++ {
			spec = workload.RandomMixSpec(rng, cfg.Requests, cfg.MaxIOPS)
		}
		s, err := NewLabeler(cfg).Label(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if checkWholeRuns(t, cfg, s) == 0 {
			t.Error("no strategy was composed from groups")
		}
	})
}

// checkWholeRuns replays every strategy of cfg whole on the sample's
// workload, each on a fresh runner, and reports each latency the sample
// does not match. It returns how many strategies Costs composed from
// channel-group replays.
func checkWholeRuns(t *testing.T, cfg Config, s Sample) (composed int) {
	t.Helper()
	opts := cfg.Options
	opts.FaultPlan = s.Fault
	tr, err := s.Spec.Build(cfg.Device.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	traits := s.Spec.Traits()
	jobs, parts := replays(cfg.Strategies, cfg.Device.Channels, traits, tr, opts)
	for si, st := range cfg.Strategies {
		if jobs[parts[si][0]].only != nil {
			composed++
		}
		res, err := simrun.NewRunner().Run(context.Background(), simrun.Config{
			Device: cfg.Device, Options: opts, Strategy: st, Traits: traits,
			Hybrid: cfg.Hybrid, Season: cfg.Season,
		}, tr)
		want := Infeasible
		if err == nil {
			want = workload.TotalLatency(res.Result)
		} else if !errors.Is(err, ftl.ErrDeviceFull) {
			t.Fatal(err)
		}
		if s.Latencies[si] != want {
			t.Errorf("spec seed %d strategy %s: latency %v labelled, %v replayed whole", s.Spec.Seed, st.Name(cfg.Device.Channels), s.Latencies[si], want)
		}
	}
	return composed
}
