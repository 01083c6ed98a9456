// Package ssdkeeper's root benchmark harness measures the simulator, the
// inference path and the ablations called out in DESIGN.md. Custom metrics
// carry the results: latencies in us, accuracies in percent — so
// `go test -bench=. -benchmem` both exercises and reports them.
// cmd/experiments regenerates the paper's tables and figures.
package ssdkeeper

import (
	"context"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/dataset"
	"ssdkeeper/internal/experiments"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/ftl"
	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/nn"
	"ssdkeeper/internal/policy"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
	"ssdkeeper/internal/workload"
)

// quickEnvScale returns the shared environment and smoke scale.
func quickEnvScale() (experiments.Env, experiments.Scale) {
	return experiments.NewEnv(), experiments.QuickScale()
}

// benchSamples memoizes a QuickScale dataset across benchmarks (building it
// is itself benchmarked separately).
var benchState []dataset.Sample

func benchSamples(b *testing.B) []dataset.Sample {
	b.Helper()
	if benchState != nil {
		return benchState
	}
	env, scale := quickEnvScale()
	samples, err := experiments.BuildDataset(context.Background(), env, scale, nil)
	if err != nil {
		b.Fatal(err)
	}
	benchState = samples
	return samples
}

// BenchmarkDatasetGeneration measures the label-generation pipeline
// (Algorithm 1 lines 1-8): one workload replayed under all 42 strategies.
func BenchmarkDatasetGeneration(b *testing.B) {
	env, scale := quickEnvScale()
	cfg := dataset.Config{
		Device: env.Device, Options: env.Options, Strategies: env.Strategies,
		Workloads: 1, Requests: scale.DatasetRequests,
		MaxIOPS: env.SaturationIOPS, Season: env.Season, Seed: 1,
	}
	spec := workload.MixSpec{
		Tenants: []workload.TenantSpec{
			{WriteRatio: 0.9, Share: 0.4}, {WriteRatio: 0.1, Share: 0.3},
			{WriteRatio: 0.95, Share: 0.2}, {WriteRatio: 0.05, Share: 0.1},
		},
		Requests: scale.DatasetRequests, IOPS: 8000, Seed: 2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Label(context.Background(), cfg, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed: simulated
// requests processed per wall-clock second under Shared.
func BenchmarkSimulatorThroughput(b *testing.B) {
	env, _ := quickEnvScale()
	spec := workload.MixSpec{
		Tenants: []workload.TenantSpec{
			{WriteRatio: 0.9, Share: 0.5}, {WriteRatio: 0.1, Share: 0.5},
		},
		Requests: 5000, IOPS: 8000, Seed: 3,
	}
	tr, err := spec.Build(env.Device.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay(simrun.Config{
			Device: env.Device, Options: env.Options,
			Strategy: alloc.Strategy{Kind: alloc.Shared},
			Traits:   spec.Traits(), Season: env.Season,
		}, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr)*b.N)/b.Elapsed().Seconds(), "requests/s")
}

// BenchmarkSimulatorHealth measures what the device-health tier costs and
// what a failure does to service: the BenchmarkSimulatorThroughput workload
// runs with no fault plan, with a plan armed whose events never fire (the
// pure bookkeeping overhead of health tracking — bench_gate.sh holds
// armed/nofault within 2%), and through a mid-run die failure plus retry
// tail (the degraded-device throughput and read p99 DESIGN.md §17 quotes).
func BenchmarkSimulatorHealth(b *testing.B) {
	env, _ := quickEnvScale()
	spec := workload.MixSpec{
		Tenants: []workload.TenantSpec{
			{WriteRatio: 0.9, Share: 0.5}, {WriteRatio: 0.1, Share: 0.5},
		},
		Requests: 5000, IOPS: 8000, Seed: 3,
	}
	tr, err := spec.Build(env.Device.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	span := sim.Time(float64(spec.Requests) / spec.IOPS * float64(sim.Second))
	cases := []struct {
		name string
		plan *nand.FaultPlan
	}{
		{"nofault", nil},
		// A non-nil plan with no events arms every health hook (place
		// redirects, retry draws, wear checks) without a single fault —
		// the pure cost of the machinery. An event beyond the run's span
		// would not do: the engine drains its queue at end of run, so a
		// far-future die failure still executes and pollutes the timing.
		{"armed", &nand.FaultPlan{Seed: 1}},
		{"degraded", &nand.FaultPlan{Seed: 1, Events: []nand.FaultEvent{
			{Kind: nand.FaultDieFail, At: span * 2 / 5, Channel: 1, Die: 0},
			{Kind: nand.FaultRetryTail, At: span * 2 / 5, Prob: 0.25},
		}}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			opts := env.Options
			opts.FaultPlan = c.plan
			var readP99 float64
			for i := 0; i < b.N; i++ {
				res, err := replay(simrun.Config{
					Device: env.Device, Options: opts,
					Strategy: alloc.Strategy{Kind: alloc.Shared},
					Traits:   spec.Traits(), Season: env.Season,
				}, tr)
				if err != nil {
					b.Fatal(err)
				}
				readP99 = float64(res.Device.Read.P99()) / 1e3
			}
			b.ReportMetric(float64(len(tr)*b.N)/b.Elapsed().Seconds(), "requests/s")
			b.ReportMetric(readP99, "read-p99-us")
		})
	}
}

// BenchmarkSimulatorHealthOverhead reports the no-fault cost of the health
// machinery as a single same-run ratio: each iteration runs the workload
// twice back to back — once with FaultPlan nil, once with an armed empty
// plan — and the armed-over-nofault metric is the ratio of the accumulated
// times. Interleaving the pairs cancels machine drift that would swamp a
// sequential A-then-B comparison; bench_gate.sh holds the ratio at ≤ 1.02.
func BenchmarkSimulatorHealthOverhead(b *testing.B) {
	env, _ := quickEnvScale()
	spec := workload.MixSpec{
		Tenants: []workload.TenantSpec{
			{WriteRatio: 0.9, Share: 0.5}, {WriteRatio: 0.1, Share: 0.5},
		},
		Requests: 5000, IOPS: 8000, Seed: 3,
	}
	tr, err := spec.Build(env.Device.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	run := func(plan *nand.FaultPlan) time.Duration {
		opts := env.Options
		opts.FaultPlan = plan
		start := time.Now()
		if _, err := replay(simrun.Config{
			Device: env.Device, Options: opts,
			Strategy: alloc.Strategy{Kind: alloc.Shared},
			Traits:   spec.Traits(), Season: env.Season,
		}, tr); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	armed := &nand.FaultPlan{Seed: 1}
	plain := make([]time.Duration, 0, b.N)
	withHP := make([]time.Duration, 0, b.N)
	// Collections during a run land on whichever side happens to cross the
	// heap-growth threshold, which swamps a 2% comparison: keep the
	// collector out of the timed regions and sweep each pair's garbage
	// explicitly between pairs instead.
	prevGC := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prevGC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
		// Alternate pair order so residual cache/heap warm-up lands on
		// both sides equally.
		if i%2 == 0 {
			plain = append(plain, run(nil))
			withHP = append(withHP, run(armed))
		} else {
			withHP = append(withHP, run(armed))
			plain = append(plain, run(nil))
		}
	}
	b.StopTimer()
	if len(plain) > 0 {
		b.ReportMetric(float64(median(withHP))/float64(median(plain)), "armed-over-nofault")
	}
}

// benchRunner is reused by every replay: a reset engine replays exactly like
// a fresh one, so the timed loops measure the simulation, not its set-up.
var benchRunner = simrun.NewRunner()

// replay runs one simulation on benchRunner.
func replay(rc simrun.Config, t trace.Trace) (ssd.Result, error) {
	res, err := benchRunner.Run(context.Background(), rc, t)
	return res.Result, err
}

// median of a duration sample; GC pauses and scheduler hiccups land on
// single runs, so the median is the drift-robust centre the overhead gate
// needs.
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// BenchmarkNNInference measures one forward propagation of the deployed
// 9-64-42 network — the per-window decision cost SSDKeeper adds to the FTL,
// which the paper argues is negligible (Section IV.D).
func BenchmarkNNInference(b *testing.B) {
	net, err := nn.NewMLP([]int{features.Dim, 64, 42}, nn.Logistic{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	v := features.Vector{Intensity: 9, Prop: [4]float64{0.4, 0.3, 0.2, 0.1}}
	in := v.Input()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Predict(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictParallel drives Keeper.Predict from every GOMAXPROCS
// worker at once (`-cpu 1,N` shows the scaling). Inference scratch is pooled
// per caller — there is no shared Predict mutex — so ns/op should hold
// roughly flat as workers are added instead of serializing on a lock.
func BenchmarkPredictParallel(b *testing.B) {
	env, _ := quickEnvScale()
	net, err := nn.NewMLP([]int{features.Dim, 64, len(env.Strategies)}, nn.Logistic{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	k, err := keeper.New(keeper.Config{
		Device: env.Device, Options: env.Options, Strategies: env.Strategies,
		SaturationIOPS: env.SaturationIOPS, Window: 100 * sim.Millisecond,
		Season: env.Season,
	}, net)
	if err != nil {
		b.Fatal(err)
	}
	v := features.Vector{Intensity: 9, Prop: [4]float64{0.4, 0.3, 0.2, 0.1}}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := k.Predict(v); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPredict measures one decision on the deployed network shape
// (12-64-42) under the full Keeper.Predict path. The sub-benchmark keeps the
// name scripts/bench_baseline.json gates (ns/op ceiling, 0 allocs/op).
func BenchmarkPredict(b *testing.B) {
	env, _ := quickEnvScale()
	net, err := nn.NewMLP([]int{features.Dim, 64, len(env.Strategies)}, nn.Logistic{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	vs := make([]features.Vector, 64)
	for i := range vs {
		vs[i] = features.Vector{
			Intensity: i % features.Levels,
			ReadChar:  [4]bool{i%2 == 0, i%3 == 0, i%5 == 0, i%7 == 0},
			Prop:      [4]float64{0.4, 0.3, 0.2, 0.1},
		}
	}
	m, err := policy.NewModel("bench", net, env.Strategies)
	if err != nil {
		b.Fatal(err)
	}
	k, err := keeper.NewWithProvider(keeper.Config{
		Device: env.Device, Options: env.Options, Strategies: env.Strategies,
		SaturationIOPS: env.SaturationIOPS, Window: 100 * sim.Millisecond,
		Season: env.Season,
	}, m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("float64/call", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := k.Predict(vs[i%len(vs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNNTrainingEpoch measures one epoch of minibatch training on the
// paper's network shape.
func BenchmarkNNTrainingEpoch(b *testing.B) {
	samples := benchSamples(b)
	ds := dataset.ToNN(samples)
	net, err := nn.NewMLP([]int{features.Dim, 64, 42}, nn.Logistic{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	opt := nn.NewAdam(0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nn.Train(net, ds, nn.Dataset{}, nn.TrainConfig{
			Iterations: 1, BatchSize: 32, Optimizer: opt, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md section 6) ---

// ablationMix builds the standard write-heavy two-tenant mix the ablations
// share.
func ablationMix(b *testing.B, cfg nand.Config) (trace.Trace, []alloc.TenantTraits) {
	b.Helper()
	spec := workload.MixSpec{
		Tenants: []workload.TenantSpec{
			{WriteRatio: 0.95, Share: 0.6},
			{WriteRatio: 0.05, Share: 0.4},
		},
		Requests: 6000, IOPS: 8000, Seed: 5,
	}
	tr, err := spec.Build(cfg.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	return tr, spec.Traits()
}

// BenchmarkAblationReadPriority compares FIFO (the paper's substrate) with
// strict read-priority arbitration under Shared. Read priority collapses
// read latency but the report shows what it does to writes.
func BenchmarkAblationReadPriority(b *testing.B) {
	env, _ := quickEnvScale()
	tr, traits := ablationMix(b, env.Device)
	for _, prio := range []bool{false, true} {
		name := "fifo"
		if prio {
			name = "readpriority"
		}
		b.Run(name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				res, err := replay(simrun.Config{
					Device: env.Device, Options: ssd.Options{ReadPriority: prio},
					Strategy: alloc.Strategy{Kind: alloc.Shared},
					Traits:   traits, Season: env.Season,
				}, tr)
				if err != nil {
					b.Fatal(err)
				}
				total = res.Device.Total()
			}
			b.ReportMetric(total, "us-total")
		})
	}
}

// BenchmarkAblationPageAlloc compares the page allocation modes under a 6:2
// split on both a fresh and a seasoned device. On fresh flash dynamic
// allocation wins by spreading write bursts; on a seasoned device it
// scatters overwrites across planes, raising GC write amplification — the
// regime where the paper's hybrid allocator inverts.
func BenchmarkAblationPageAlloc(b *testing.B) {
	env, _ := quickEnvScale()
	tr, traits := ablationMix(b, env.Device)
	strategy := alloc.Strategy{Kind: alloc.TwoGroup, WriteChannels: 6}
	for _, seasoned := range []bool{false, true} {
		for _, mode := range []string{"static", "hybrid"} {
			name := "fresh/" + mode
			if seasoned {
				name = "seasoned/" + mode
			}
			b.Run(name, func(b *testing.B) {
				var total float64
				var moved uint64
				for i := 0; i < b.N; i++ {
					rc := simrun.Config{
						Device: env.Device, Options: env.Options,
						Strategy: strategy, Traits: traits,
						Hybrid: mode == "hybrid",
					}
					if seasoned {
						rc.Season = simrun.DefaultSeasoning()
					}
					res, err := replay(rc, tr)
					if err != nil {
						b.Fatal(err)
					}
					total = res.Device.Total()
					moved = res.FTL.GCMovedPages
				}
				b.ReportMetric(total, "us-total")
				b.ReportMetric(float64(moved), "gc-pages-moved")
			})
		}
	}
}

// BenchmarkAblationHidden varies the classifier's hidden width around the
// paper's 64 neurons and reports held-out regret.
func BenchmarkAblationHidden(b *testing.B) {
	env, scale := quickEnvScale()
	samples := benchSamples(b)
	for _, hidden := range []int{16, 64, 256} {
		b.Run(map[int]string{16: "h16", 64: "h64", 256: "h256"}[hidden], func(b *testing.B) {
			var regret float64
			for i := 0; i < b.N; i++ {
				res, err := keeper.TrainOnSamples(keeper.TrainConfig{
					Dataset: dataset.Config{
						Device: env.Device, Options: env.Options,
						Strategies: env.Strategies,
						Workloads:  scale.DatasetWorkloads,
						Requests:   scale.DatasetRequests,
						MaxIOPS:    env.SaturationIOPS,
						Season:     env.Season, Seed: scale.Seed,
					},
					Hidden:     hidden,
					Iterations: scale.TrainIterations,
					BatchSize:  scale.TrainBatch,
					Seed:       scale.Seed,
				}, samples)
				if err != nil {
					b.Fatal(err)
				}
				ev, err := experiments.EvaluateModel(res.Model, res.TestSamples)
				if err != nil {
					b.Fatal(err)
				}
				regret = ev.MeanRegretPct
			}
			b.ReportMetric(regret, "%regret")
		})
	}
}

// BenchmarkAblationFeatures drops feature groups from the 9-D vector (by
// zeroing them at train and test time) and reports held-out regret,
// quantifying how much each of the paper's three feature groups matters.
func BenchmarkAblationFeatures(b *testing.B) {
	env, scale := quickEnvScale()
	samples := benchSamples(b)
	masks := []struct {
		name string
		keep func(v features.Vector) features.Vector
	}{
		{"full", func(v features.Vector) features.Vector { return v }},
		{"no-intensity", func(v features.Vector) features.Vector { v.Intensity = 0; return v }},
		{"no-proportions", func(v features.Vector) features.Vector { v.Prop = [4]float64{}; return v }},
		{"no-characteristics", func(v features.Vector) features.Vector { v.ReadChar = [4]bool{}; return v }},
	}
	for _, m := range masks {
		b.Run(m.name, func(b *testing.B) {
			masked := make([]dataset.Sample, len(samples))
			for i, s := range samples {
				s.Vector = m.keep(s.Vector)
				masked[i] = s
			}
			var regret float64
			for i := 0; i < b.N; i++ {
				res, err := keeper.TrainOnSamples(keeper.TrainConfig{
					Dataset: dataset.Config{
						Device: env.Device, Options: env.Options,
						Strategies: env.Strategies,
						Workloads:  scale.DatasetWorkloads,
						Requests:   scale.DatasetRequests,
						MaxIOPS:    env.SaturationIOPS,
						Season:     env.Season, Seed: scale.Seed,
					},
					Iterations: scale.TrainIterations,
					BatchSize:  scale.TrainBatch,
					Seed:       scale.Seed,
				}, masked)
				if err != nil {
					b.Fatal(err)
				}
				ev, err := experiments.EvaluateModel(res.Model, res.TestSamples)
				if err != nil {
					b.Fatal(err)
				}
				regret = ev.MeanRegretPct
			}
			b.ReportMetric(regret, "%regret")
		})
	}
}

// BenchmarkGCPressure isolates garbage collection: overwrite churn on one
// plane, reporting pages moved per erase (write-amplification proxy).
func BenchmarkGCPressure(b *testing.B) {
	cfg := nand.EvalConfig()
	cfg.Channels, cfg.ChipsPerChannel, cfg.PlanesPerDie = 1, 1, 1
	runner := simrun.NewRunner()
	for i := 0; i < b.N; i++ {
		sess, err := runner.NewSession(simrun.Config{
			Device: cfg, Season: simrun.DefaultSeasoning(),
		})
		if err != nil {
			b.Fatal(err)
		}
		f := sess.Device().FTL()
		for round := 0; round < 20; round++ {
			for lpn := int64(0); lpn < 256; lpn++ {
				if _, _, err := f.MapWrite(ftl.Key{Tenant: 0, LPN: lpn}); err != nil {
					b.Fatal(err)
				}
			}
		}
		c := f.Counters()
		if c.GCErases > 0 {
			b.ReportMetric(float64(c.GCMovedPages)/float64(c.GCErases), "moved/erase")
		}
	}
}

// BenchmarkAblationCacheRegister removes the per-plane cache register
// (Figure 1), serializing array time and bus transfer on each die.
func BenchmarkAblationCacheRegister(b *testing.B) {
	env, _ := quickEnvScale()
	tr, traits := ablationMix(b, env.Device)
	for _, noCache := range []bool{false, true} {
		name := "cached"
		if noCache {
			name = "uncached"
		}
		b.Run(name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				opts := env.Options
				opts.NoCacheRegister = noCache
				res, err := replay(simrun.Config{
					Device: env.Device, Options: opts,
					Strategy: alloc.Strategy{Kind: alloc.Shared},
					Traits:   traits, Season: env.Season,
				}, tr)
				if err != nil {
					b.Fatal(err)
				}
				total = res.Device.Total()
			}
			b.ReportMetric(total, "us-total")
		})
	}
}

// BenchmarkAblationWearLeveling measures static wear leveling's effect on
// erase-count spread and on foreground latency.
func BenchmarkAblationWearLeveling(b *testing.B) {
	env, _ := quickEnvScale()
	tr, traits := ablationMix(b, env.Device)
	for _, threshold := range []int{0, 16} {
		name := "off"
		if threshold > 0 {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var total float64
			var spread int
			for i := 0; i < b.N; i++ {
				cfg := env.Device
				cfg.WearThreshold = threshold
				sess, err := simrun.NewRunner().NewSession(simrun.Config{
					Device: cfg, Options: env.Options,
					Strategy: alloc.Strategy{Kind: alloc.Shared},
					Traits:   traits, Season: env.Season,
				})
				if err != nil {
					b.Fatal(err)
				}
				dev := sess.Device()
				res, err := dev.Run(tr, nil)
				if err != nil {
					b.Fatal(err)
				}
				total = res.Device.Total()
				w := dev.FTL().Wear()
				spread = w.MaxErases - w.MinErases
			}
			b.ReportMetric(total, "us-total")
			b.ReportMetric(float64(spread), "erase-spread")
		})
	}
}

// BenchmarkAblationCMT bounds the FTL's mapping cache (DFTL-style) and
// reports the latency cost of translation misses versus unlimited mapping
// SRAM.
func BenchmarkAblationCMT(b *testing.B) {
	env, _ := quickEnvScale()
	tr, traits := ablationMix(b, env.Device)
	for _, entries := range []int{0, 1024, 16384} {
		name := map[int]string{0: "unlimited", 1024: "cmt1k", 16384: "cmt16k"}[entries]
		b.Run(name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				opts := env.Options
				opts.CMTEntries = entries
				res, err := replay(simrun.Config{
					Device: env.Device, Options: opts,
					Strategy: alloc.Strategy{Kind: alloc.Shared},
					Traits:   traits, Season: env.Season,
				}, tr)
				if err != nil {
					b.Fatal(err)
				}
				total = res.Device.Total()
			}
			b.ReportMetric(total, "us-total")
		})
	}
}
