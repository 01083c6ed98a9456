// Package dataset implements the paper's strategy-learner data pipeline
// (Sections IV.C and V.B): synthesize mixed workloads with random access
// patterns, replay each one under every channel-allocation strategy on the
// simulator, label it with the strategy that minimizes total response
// latency, and emit a shuffled, split classification dataset.
//
// Label generation is embarrassingly parallel — every workload's replays
// are independent — so it fans out across a worker pool. Within a workload,
// a channel group that recurs across strategies is replayed once and the
// strategies are composed from their groups (Labeler.Costs).
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
	"ssdkeeper/internal/stats"
	"ssdkeeper/internal/trace"
	"ssdkeeper/internal/workload"
)

// tieTolerance denoises labels: among strategies whose total latency is
// within this fraction of the minimum, the earliest strategy in the space
// wins. Simulated latencies of near-equivalent strategies differ by sampling
// noise; without a tolerance the argmin flips arbitrarily between them and
// the classifier learns that noise.
const tieTolerance = 0.02

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
	// workload's replays out. Many workloads → all-outer (one labeler per
	// worker, serial replays, minimal cross-goroutine traffic); few
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
// each Label call spreads its replays across the runners; each result lands
// in its own slot and strategies are composed after every replay is done, so
// the sample is identical for any worker count. A Labeler belongs to one
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
	tr, err := spec.Build(cfg.Device.PageSize)
	if err != nil {
		return Sample{}, err
	}
	costs, err := l.Costs(ctx, tr, spec.Traits(), plan)
	if err != nil {
		return Sample{}, err
	}
	lat := make([]float64, len(costs))
	feasible := 0
	for si, c := range costs {
		lat[si] = c.Total()
		if !c.Infeasible {
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
	cutoff := lat[best] * (1 + tieTolerance)
	for i, v := range lat {
		if v <= cutoff {
			best = i
			break
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

// Cost is one strategy's latency on one trace: the device-wide read and
// write Count and Sum of a whole run, or the sums of its channel groups'
// ones. Those integers are all Total and the means read, so a composed cost
// computes the very float a whole run does.
type Cost struct {
	Device stats.Latency // only Count and Sum are set
	// Infeasible marks a strategy whose channel partition cannot hold its
	// tenants' live data (ftl.ErrDeviceFull).
	Infeasible bool
}

// Total is the strategy's total response latency in microseconds
// (stats.Latency.Total), or the package's Infeasible.
func (c Cost) Total() float64 {
	if c.Infeasible {
		return Infeasible
	}
	return c.Device.Total()
}

// Costs replays the trace under every strategy of the labeler's space, on a
// device with the labeler's geometry, options and seasoning (and plan, if
// not nil), and returns the strategies' costs in space order.
//
// A partitioned strategy's channel groups share no bus, die, plane, GC or
// wear state, so a group costs the same under every strategy that contains
// it. Each distinct group is replayed once (ssd.Device.RunTenants) and a
// strategy's cost is the sum of its groups' — when at least one of its
// groups recurs in another strategy; otherwise it runs whole. A group is
// keyed by its tenants and channel count: seasoning ages every plane alike,
// so on a fault-free device every channel set of one size costs the same.
// Decomposition needs no fault plan, every record's tenant bound, and
// disjoint group channel sets; anything else runs every strategy whole. A
// fault plan breaks two things.
// A die failure rebuilds seasoning pages that GC moved over every channel,
// so groups stop being isolated. And the plan breaks channel symmetry: a die
// failure names one die and read retries hash the physical page, so a group
// measured on one channel set does not cost the same on another set of the
// same size. Mending either alone still leaves mismatched latencies; faulted
// labels compose only with both mended and a channel-set key under faults.
// A group that fails with ftl.ErrDeviceFull makes its strategies
// Infeasible; any other failure re-runs the strategy whole, so the error
// returned is the one a whole run reports.
func (l *Labeler) Costs(ctx context.Context, tr trace.Trace, traits []alloc.TenantTraits, plan *nand.FaultPlan) ([]Cost, error) {
	cfg := l.cfg
	opts := cfg.Options
	if plan != nil {
		opts.FaultPlan = plan
	}
	run := func(si int) simrun.Config {
		return simrun.Config{
			Device:   cfg.Device,
			Options:  opts,
			Strategy: cfg.Strategies[si],
			Traits:   traits,
			Hybrid:   cfg.Hybrid,
			Season:   cfg.Season,
		}
	}
	jobs, parts := replays(cfg.Strategies, cfg.Device.Channels, traits, tr, opts)
	// cost replays strategy si on runner r, submitting only's tenants (all
	// when only is nil); the trace and traits are shared read-only.
	cost := func(r *simrun.Runner, si int, only []bool) (stats.Latency, error) {
		sess, err := r.NewSession(run(si))
		if err != nil {
			return stats.Latency{}, err
		}
		return sess.RunTenants(ctx, tr, only)
	}
	// do runs one replay; its outcome lands in the job's own slot.
	do := func(r *simrun.Runner, jb *replay) {
		jb.lat, jb.err = cost(r, jb.strategy, jb.only)
	}
	workers := l.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		r := l.runnerFor(0)
		for j := range jobs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			do(r, &jobs[j])
		}
	} else {
		// Atomic dispenser over the replays: workers pull the next
		// unclaimed one until none is left.
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			r := l.runnerFor(w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1)) - 1
					if j >= len(jobs) || ctx.Err() != nil {
						return
					}
					do(r, &jobs[j])
				}
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Compose in strategy order, so the failure surfaced does not depend
	// on worker interleaving.
	costs := make([]Cost, len(cfg.Strategies))
	for si, js := range parts {
		c, failed := Cost{}, error(nil)
		for _, j := range js {
			switch err := jobs[j].err; {
			case err == nil:
				c.Device.Merge(jobs[j].lat)
			case errors.Is(err, ftl.ErrDeviceFull):
				c.Infeasible = true
			default:
				failed = err
			}
		}
		if failed != nil && jobs[js[0]].only != nil {
			// A group failed otherwise than by filling up: the whole
			// strategy's replay decides what is reported.
			lat, err := cost(l.runnerFor(0), si, nil)
			c, failed = Cost{Device: lat}, err
			if errors.Is(err, ftl.ErrDeviceFull) {
				c, failed = Cost{Infeasible: true}, nil
			}
		}
		if failed != nil {
			return nil, fmt.Errorf("strategy %s: %w", cfg.Strategies[si].Name(cfg.Device.Channels), failed)
		}
		costs[si] = c
	}
	return costs, nil
}

// replay is one simulation of Costs: a whole strategy (only nil) or one
// channel group of the strategy's binding (only marks its tenants).
type replay struct {
	strategy int
	only     []bool
	lat      stats.Latency
	err      error
}

// replays plans the simulations that cost every strategy of space on tr:
// parts[si] lists the replays strategy si sums. A strategy runs whole unless
// the device and trace allow decomposition (see Costs) and one of its groups
// recurs in another strategy; every distinct (tenants, channel count) group
// is replayed once. The count key holds only while channels are
// interchangeable, which a fault plan's failed die and hashed read retries
// are not — one of the two reasons a plan runs every strategy whole.
func replays(space []alloc.Strategy, channels int, traits []alloc.TenantTraits, tr trace.Trace, opts ssd.Options) (jobs []replay, parts [][]int) {
	groups := make([][]alloc.Group, len(space))
	recurs := map[alloc.GroupKey]int{} // group key -> strategies whose binding has it
	if opts.FaultPlan == nil && len(traits) <= alloc.MaxKeyTenants && bound(tr, len(traits)) {
		for si, s := range space {
			b, err := s.Bind(channels, traits)
			if err != nil {
				continue // the whole run reports it
			}
			if gs, ok := b.Groups(); ok {
				groups[si] = gs
				for _, g := range gs {
					recurs[g.Key()]++
				}
			}
		}
	}
	parts = make([][]int, len(space))
	index := map[alloc.GroupKey]int{} // group key -> its replay
	for si := range space {
		shared := false
		for _, g := range groups[si] {
			shared = shared || recurs[g.Key()] > 1
		}
		if !shared {
			parts[si] = []int{len(jobs)}
			jobs = append(jobs, replay{strategy: si})
			continue
		}
		for _, g := range groups[si] {
			j, ok := index[g.Key()]
			if !ok {
				j = len(jobs)
				index[g.Key()] = j
				only := make([]bool, len(traits))
				for _, t := range g.Tenants {
					only[t] = true
				}
				jobs = append(jobs, replay{strategy: si, only: only})
			}
			parts[si] = append(parts[si], j)
		}
	}
	return jobs, parts
}

// bound reports whether every record's tenant is one of the n the strategy
// binds; an unbound tenant stripes over every channel and shares them all.
func bound(tr trace.Trace, n int) bool {
	for _, r := range tr {
		if r.Tenant < 0 || r.Tenant >= n {
			return false
		}
	}
	return true
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

// ToNN converts samples into an nn.Dataset of features.Dim-wide inputs (the
// paper's 9 plus 3 device-health inputs) and class labels.
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
