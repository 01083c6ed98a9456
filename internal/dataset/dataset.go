// Package dataset implements the paper's strategy-learner data pipeline
// (Sections IV.C and V.B): synthesize mixed workloads with random access
// patterns, replay each one under every channel-allocation strategy on the
// simulator, label it with the strategy that minimizes total response
// latency, and emit a shuffled, split classification dataset.
//
// Label generation is embarrassingly parallel — every (workload, strategy)
// simulation is independent — so it fans out across a worker pool.
package dataset

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ssdkeeper/internal/ftl"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/nn"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/workload"
)

// Config controls dataset generation.
type Config struct {
	Device     nand.Config
	Options    ssd.Options
	Strategies []alloc.Strategy // label space; index = class
	Workloads  int              // mixed workloads to synthesize (paper: 5000)
	Requests   int              // requests per mixed workload (paper: 2M)
	MaxIOPS    float64          // intensity sampling range / level-19 rate
	Hybrid     bool             // run label simulations with hybrid page allocation
	Season     simrun.Seasoning
	// TieTolerance denoises labels: among strategies whose total latency
	// is within this fraction of the minimum, the earliest strategy in
	// the space wins. Simulated latencies of near-equivalent strategies
	// differ by sampling noise; without a tolerance the argmin flips
	// arbitrarily between them and the classifier learns that noise.
	// Negative disables; zero applies the 2% default.
	TieTolerance float64
	// FaultFraction is the share of workloads labelled under a randomly
	// synthesized nand.FaultPlan (die failure, retry tail, program
	// slowdown), so the trained model sees the health features populated
	// and learns strategy choice on degraded devices too. The plan is held
	// constant across the per-strategy loop — every strategy is measured
	// under the same injuries — and the sample's vector carries the plan's
	// ground-truth health features. Zero keeps the immortal pipeline. Fault
	// draws come from their own stream, so the workload specs are the same
	// for every FaultFraction at one Seed.
	FaultFraction float64
	Seed          int64
	Workers       int // 0 = GOMAXPROCS
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if err := c.Device.Validate(); err != nil {
		return err
	}
	switch {
	case len(c.Strategies) == 0:
		return fmt.Errorf("dataset: empty strategy space")
	case c.Workloads <= 0:
		return fmt.Errorf("dataset: non-positive workload count")
	case c.Requests <= 0:
		return fmt.Errorf("dataset: non-positive request count")
	case c.MaxIOPS <= 0:
		return fmt.Errorf("dataset: non-positive MaxIOPS")
	case !(c.FaultFraction >= 0 && c.FaultFraction <= 1):
		return fmt.Errorf("dataset: fault fraction %v outside [0,1]", c.FaultFraction)
	}
	return nil
}

// Sample is one labelled mixed workload: the feature vector SSDKeeper would
// observe, the winning strategy, and the measured per-strategy latencies
// (kept so analyses like Figure 6 can be recomputed without re-simulating).
type Sample struct {
	Spec      workload.MixSpec `json:"spec"`
	Vector    features.Vector  `json:"vector"`
	Label     int              `json:"label"`
	Latencies []float64        `json:"latencies_us"` // total latency per strategy
	// Fault is the plan the workload was labelled under, nil for immortal
	// samples. Kept for provenance and so datasets regenerate faithfully.
	Fault *nand.FaultPlan `json:"fault,omitempty"`
}

// Generate runs the full label-generation pipeline. progress (may be nil) is
// called after each workload completes, from multiple goroutines, with the
// number done so far. Cancelling ctx stops the workers between simulations
// and returns the context's error; samples labelled so far are discarded
// (partial datasets would silently bias training).
func Generate(ctx context.Context, cfg Config, progress func(done, total int)) ([]Sample, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Split the budget across the two parallel dimensions: outer workers
	// take whole workloads; each one labels with inner workers fanning the
	// per-strategy loop out. Many workloads → all-outer (one labeler per
	// worker, serial strategy loop, minimal cross-goroutine traffic); few
	// workloads → the spare budget parallelizes inside each label. Either
	// split produces identical samples.
	outer := workers
	if outer > cfg.Workloads {
		outer = cfg.Workloads
	}
	inner := workers / outer
	if inner < 1 {
		inner = 1
	}

	// Draw every spec and fault plan up front so results do not depend on
	// worker interleaving. Faults come from a second stream: the specs at
	// one seed are the same whatever FaultFraction is, and at zero the
	// fault stream is never read.
	rng := rand.New(rand.NewSource(cfg.Seed))
	faultRng := rand.New(rand.NewSource(cfg.Seed ^ faultStreamSalt))
	specs := make([]workload.MixSpec, cfg.Workloads)
	plans := make([]*nand.FaultPlan, cfg.Workloads)
	for i := range specs {
		specs[i] = workload.RandomMixSpec(rng, cfg.Requests, cfg.MaxIOPS)
		if cfg.FaultFraction > 0 && faultRng.Float64() < cfg.FaultFraction {
			plans[i] = RandomFaultPlan(faultRng, cfg.Device, specs[i])
		}
	}

	samples := make([]Sample, cfg.Workloads)
	errs := make([]error, cfg.Workloads)
	var done atomic.Int64
	var wg sync.WaitGroup
	// Buffered to the full workload count: the scheduling loop never
	// blocks on a slow worker, and cancellation only has to stop reads.
	work := make(chan int, cfg.Workloads)
	for w := 0; w < outer; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One labeler per worker: the runners (engines, devices,
			// collectors) are reused across every simulation this worker
			// runs.
			lcfg := cfg
			lcfg.Workers = inner
			lab := NewLabeler(lcfg)
			for i := range work {
				if ctx.Err() != nil {
					return
				}
				samples[i], errs[i] = lab.LabelFaulted(ctx, specs[i], plans[i])
				if progress != nil {
					progress(int(done.Add(1)), cfg.Workloads)
				}
			}
		}()
	}
schedule:
	for i := 0; i < cfg.Workloads; i++ {
		select {
		case <-ctx.Done():
			break schedule
		case work <- i:
		}
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dataset: workload %d: %w", i, err)
		}
	}
	return samples, nil
}

// faultStreamSalt derives the fault-plan stream's seed from Config.Seed.
const faultStreamSalt = 0x5eed_fa17

// Infeasible is the latency recorded for a strategy whose channel partition
// cannot hold its tenants' live data (ftl.ErrDeviceFull). It never wins the
// label and is JSON-safe, unlike +Inf.
const Infeasible = math.MaxFloat64

// Labeler labels workloads one after another on a pool of private
// simrun.Runners, so the simulation engines, devices, and collectors are
// reused across the whole per-strategy loop instead of being reallocated per
// simulation. With more than one worker (Config.Workers; 0 = GOMAXPROCS)
// each Label call splits its per-strategy loop across the runners; the
// strategies run concurrently but each result lands in its strategy's slot,
// so the sample is identical for any worker count. A Labeler belongs to one
// goroutine at a time; Generate gives each outer worker its own.
type Labeler struct {
	cfg     Config
	workers int
	runners []*simrun.Runner // one per worker, created lazily, reused across calls
}

// NewLabeler returns a labeler for the given generation config.
func NewLabeler(cfg Config) *Labeler {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Labeler{cfg: cfg, workers: w}
}

// runnerFor returns (creating on first use) the worker's private runner.
func (l *Labeler) runnerFor(w int) *simrun.Runner {
	for len(l.runners) <= w {
		l.runners = append(l.runners, simrun.NewRunner())
	}
	return l.runners[w]
}

// Label runs one mixed workload under every strategy and returns the
// labelled sample (Algorithm 1, lines 3-8). Strategies that overflow their
// partitions score Infeasible. Cancelling ctx aborts mid-loop.
func Label(ctx context.Context, cfg Config, spec workload.MixSpec) (Sample, error) {
	return NewLabeler(cfg).Label(ctx, spec)
}

// Label labels one workload on an immortal device. See the package-level
// Label.
func (l *Labeler) Label(ctx context.Context, spec workload.MixSpec) (Sample, error) {
	return l.LabelFaulted(ctx, spec, nil)
}

// LabelFaulted labels one workload, optionally under a fault plan applied
// identically to every strategy's replay. A nil plan is the immortal path.
func (l *Labeler) LabelFaulted(ctx context.Context, spec workload.MixSpec, plan *nand.FaultPlan) (Sample, error) {
	cfg := l.cfg
	opts := cfg.Options
	if plan != nil {
		opts.FaultPlan = plan
	}
	tr, err := spec.Build(cfg.Device.PageSize)
	if err != nil {
		return Sample{}, err
	}
	traits := spec.Traits()
	lat := make([]float64, len(cfg.Strategies))
	errs := make([]error, len(cfg.Strategies))
	// runOne replays the workload under strategy si on runner r. The trace
	// and traits are shared read-only; the result lands in the strategy's
	// own slot, so the outcome is independent of which worker ran it.
	runOne := func(r *simrun.Runner, si int) {
		res, err := r.Run(ctx, simrun.Config{
			Device:   cfg.Device,
			Options:  opts,
			Strategy: cfg.Strategies[si],
			Traits:   traits,
			Hybrid:   cfg.Hybrid,
			Season:   cfg.Season,
		}, tr)
		if errors.Is(err, ftl.ErrDeviceFull) {
			lat[si] = Infeasible
			return
		}
		if err != nil {
			errs[si] = err
			return
		}
		lat[si] = workload.TotalLatency(res.Result)
	}
	workers := l.workers
	if workers > len(cfg.Strategies) {
		workers = len(cfg.Strategies)
	}
	if workers <= 1 {
		r := l.runnerFor(0)
		for si := range cfg.Strategies {
			if err := ctx.Err(); err != nil {
				return Sample{}, err
			}
			runOne(r, si)
		}
	} else {
		// Atomic dispenser over strategy indices: workers pull the next
		// unclaimed strategy until the space is exhausted.
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			r := l.runnerFor(w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					si := int(next.Add(1)) - 1
					if si >= len(cfg.Strategies) || ctx.Err() != nil {
						return
					}
					runOne(r, si)
				}
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return Sample{}, err
	}
	// Report errors in strategy order so the failure surfaced does not
	// depend on worker interleaving.
	feasible := 0
	for si, err := range errs {
		if err != nil {
			return Sample{}, fmt.Errorf("strategy %s: %w", cfg.Strategies[si].Name(cfg.Device.Channels), err)
		}
		if lat[si] != Infeasible {
			feasible++
		}
	}
	if feasible == 0 {
		return Sample{}, fmt.Errorf("dataset: no feasible strategy for spec (device too small for working sets)")
	}
	best := 0
	for i, v := range lat {
		if v < lat[best] {
			best = i
		}
	}
	tol := cfg.TieTolerance
	if tol == 0 {
		tol = 0.02
	}
	if tol > 0 {
		cutoff := lat[best] * (1 + tol)
		for i, v := range lat {
			if v <= cutoff {
				best = i
				break
			}
		}
	}
	ratios := make([]float64, len(spec.Tenants))
	shares := make([]float64, len(spec.Tenants))
	for i, t := range spec.Tenants {
		ratios[i] = t.WriteRatio
		shares[i] = t.Share
	}
	vec, err := features.FromSpecShares(features.LevelOf(spec.IOPS, cfg.MaxIOPS), ratios, shares)
	if err != nil {
		return Sample{}, err
	}
	if plan != nil {
		vec.DeadDieFrac, vec.RetryRate, vec.WearSpread = planHealthFeatures(cfg.Device, plan, spec)
	}
	return Sample{Spec: spec, Vector: vec, Label: best, Latencies: lat, Fault: plan}, nil
}

// RandomFaultPlan synthesizes a training fault plan for one workload: a die
// failure partway through the replay, usually a read-retry tail, sometimes a
// wear program slowdown. Event times land inside the spec's nominal duration
// (Requests/IOPS) so the injuries actually bite during the labelled window.
// All randomness comes from rng, so generation stays deterministic per seed.
func RandomFaultPlan(rng *rand.Rand, dev nand.Config, spec workload.MixSpec) *nand.FaultPlan {
	dur := sim.Time(float64(spec.Requests) / spec.IOPS * float64(sim.Second))
	at := func(lo, hi float64) sim.Time {
		return sim.Time(float64(dur) * (lo + (hi-lo)*rng.Float64()))
	}
	die := rng.Intn(dev.TotalDies())
	plan := &nand.FaultPlan{Seed: rng.Int63() + 1}
	if rng.Float64() < 0.8 {
		plan.Events = append(plan.Events, nand.FaultEvent{
			Kind: nand.FaultRetryTail, Prob: 0.02 + 0.18*rng.Float64(), At: at(0.05, 0.3),
		})
	}
	plan.Events = append(plan.Events, nand.FaultEvent{
		Kind: nand.FaultDieFail, At: at(0.3, 0.7),
		Channel: dev.ChannelOfDie(die), Die: die % dev.DiesPerChannel(),
	})
	if rng.Float64() < 0.3 {
		plan.Events = append(plan.Events, nand.FaultEvent{
			Kind: nand.FaultProgramSlowdown, Factor: 1.2 + 0.8*rng.Float64(), At: at(0.3, 0.8),
		})
	}
	sort.Slice(plan.Events, func(i, j int) bool { return plan.Events[i].At < plan.Events[j].At })
	return plan
}

// planHealthFeatures derives the ground-truth health features the plan
// implies — the analog of FromSpecShares for the health dimensions. Dead-die
// fraction counts distinct failed dies; retry rate is the tail probability
// weighted by the mix's read share (only reads retry); wear spread stays 0
// (plans don't prescribe an erase-count distribution).
func planHealthFeatures(dev nand.Config, plan *nand.FaultPlan, spec workload.MixSpec) (deadFrac, retryRate, wearSpread float64) {
	dead := map[int]struct{}{}
	prob := 0.0
	for _, e := range plan.Events {
		switch e.Kind {
		case nand.FaultDieFail:
			dead[e.Channel*dev.DiesPerChannel()+e.Die] = struct{}{}
		case nand.FaultRetryTail:
			if e.Prob > prob {
				prob = e.Prob
			}
		}
	}
	deadFrac = float64(len(dead)) / float64(dev.TotalDies())
	readShare := 0.0
	for _, t := range spec.Tenants {
		readShare += t.Share * (1 - t.WriteRatio)
	}
	retryRate = prob * readShare
	return deadFrac, retryRate, 0
}

// ToNN converts samples into an nn.Dataset of 9-D inputs and class labels.
func ToNN(samples []Sample) nn.Dataset {
	d := nn.Dataset{
		X: make([][]float64, len(samples)),
		Y: make([]int, len(samples)),
	}
	for i, s := range samples {
		d.X[i] = s.Vector.Input()
		d.Y[i] = s.Label
	}
	return d
}

// Save writes samples as JSON lines.
func Save(w io.Writer, samples []Sample) error {
	enc := json.NewEncoder(w)
	for i := range samples {
		if err := enc.Encode(&samples[i]); err != nil {
			return fmt.Errorf("dataset: save sample %d: %w", i, err)
		}
	}
	return nil
}

// LoadSamples reads JSON-lines samples written by Save.
func LoadSamples(r io.Reader) ([]Sample, error) {
	dec := json.NewDecoder(r)
	var out []Sample
	for dec.More() {
		var s Sample
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("dataset: load sample %d: %w", len(out), err)
		}
		out = append(out, s)
	}
	return out, nil
}

// LabelHistogram counts how often each strategy wins, a useful diagnostic
// for class imbalance in generated datasets.
func LabelHistogram(samples []Sample, classes int) []int {
	hist := make([]int, classes)
	for _, s := range samples {
		if s.Label >= 0 && s.Label < classes {
			hist[s.Label]++
		}
	}
	return hist
}
