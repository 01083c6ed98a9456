// Package keeper implements SSDKeeper itself (Section IV): the features
// collector, strategy learner, channel allocator and hybrid page allocator,
// composed into the online workflow of Algorithm 2 — run Shared while
// collecting features for a window T, forward-propagate the features through
// the trained network, then re-bind the channels (and page modes) to the
// predicted strategy for the rest of the run.
package keeper

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/dataset"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/nn"
	"ssdkeeper/internal/policy"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
)

// Config parameterizes a Keeper.
type Config struct {
	Device     nand.Config
	Options    ssd.Options
	Strategies []alloc.Strategy // label space the model was trained on
	// SaturationIOPS calibrates the intensity-level axis; must match the
	// value used during dataset generation.
	SaturationIOPS float64
	// Window is T in Algorithm 2: how long to observe the mixed workload
	// under Shared before predicting.
	Window sim.Time
	// Hybrid enables the hybrid page allocator after the prediction:
	// dynamic page allocation for write-dominated tenants, static for
	// read-dominated ones.
	Hybrid bool
	// AdaptEvery, when positive, re-collects features and re-allocates
	// every period after the first window — the self-adapting extension
	// exercised by the online-adaptation example. Zero reproduces the
	// paper's single adaptation.
	AdaptEvery sim.Time
	// Season ages the device before the run; must match the seasoning
	// used during dataset generation.
	Season simrun.Seasoning
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if err := c.Device.Validate(); err != nil {
		return err
	}
	switch {
	case len(c.Strategies) == 0:
		return fmt.Errorf("keeper: empty strategy space")
	case c.SaturationIOPS <= 0:
		return fmt.Errorf("keeper: non-positive SaturationIOPS")
	case c.Window <= 0:
		return fmt.Errorf("keeper: non-positive window")
	case c.AdaptEvery < 0:
		return fmt.Errorf("keeper: negative AdaptEvery")
	}
	return nil
}

// Keeper binds a decision policy to a device configuration. Runs execute on
// a private simrun.Runner, so repeated Run calls on one Keeper reuse the
// simulation engine. The policy is consumed through a policy.Source, so the
// active provider can be hot-swapped while controllers are running; each
// controller owns its per-instance policy (and with it, the ANN's inference
// scratch), which is what lets every serving node predict concurrently with
// no shared lock.
type Keeper struct {
	cfg    Config
	source *policy.Source
	runner *simrun.Runner

	// pool recycles per-caller policy instances for Predict so casual
	// callers (trace replay, tests) stay contention-free without managing
	// instances themselves. Controllers bypass it entirely.
	pool sync.Pool
}

// New validates that the model matches the feature dimensionality and
// strategy space, and returns a Keeper serving it as the active policy.
func New(cfg Config, model *nn.Network) (*Keeper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	prov, err := policy.NewModel("in-memory", model, cfg.Strategies)
	if err != nil {
		return nil, fmt.Errorf("keeper: %w", err)
	}
	return NewWithProvider(cfg, prov)
}

// NewWithProvider returns a Keeper whose decisions come from the given
// versioned provider (a registry checkpoint or a static strategy).
func NewWithProvider(cfg Config, prov policy.Provider) (*Keeper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src, err := policy.NewSource(prov)
	if err != nil {
		return nil, fmt.Errorf("keeper: %w", err)
	}
	return &Keeper{cfg: cfg, source: src, runner: simrun.NewRunner()}, nil
}

// Config returns the keeper's configuration.
func (k *Keeper) Config() Config { return k.cfg }

// Source returns the policy source. Swapping its active provider re-points
// every controller at the next adaptation epoch.
func (k *Keeper) Source() *policy.Source { return k.source }

// pooledPolicy is one recycled Predict instance, tagged with the provider
// version it was instantiated from so a hot swap invalidates it.
type pooledPolicy struct {
	version string
	pol     policy.Policy
}

// Predict maps a feature vector to the chosen strategy and its index in the
// strategy space (-1 if the policy chose outside it). Safe for concurrent
// use with no shared lock: each call borrows a pooled per-caller policy
// instance, so forward passes never share scratch.
func (k *Keeper) Predict(v features.Vector) (alloc.Strategy, int, error) {
	prov := k.source.Active()
	pp, _ := k.pool.Get().(*pooledPolicy)
	if pp == nil || pp.version != prov.Version() {
		pp = &pooledPolicy{version: prov.Version(), pol: prov.NewPolicy()}
	}
	strat, err := pp.pol.Decide(v)
	k.pool.Put(pp)
	if err != nil {
		return alloc.Strategy{}, 0, err
	}
	return strat, alloc.Index(k.cfg.Strategies, strat), nil
}

// Switch records one channel re-allocation during a run.
type Switch struct {
	At       sim.Time
	Vector   features.Vector
	Strategy alloc.Strategy
	Index    int
}

// Report is the outcome of one SSDKeeper-managed run.
type Report struct {
	ssd.Result
	Switches []Switch
}

// Chosen returns the first (paper: only) strategy switch, or Shared if the
// trace ended before the window elapsed.
func (r Report) Chosen() alloc.Strategy {
	if len(r.Switches) == 0 {
		return alloc.Strategy{Kind: alloc.Shared}
	}
	return r.Switches[0].Strategy
}

// Run replays a trace under SSDKeeper management (Algorithm 2). The device
// starts in Shared with hybrid page allocation driven by live observations;
// after Window elapses the keeper predicts and re-binds channels. With
// AdaptEvery set it keeps re-observing and re-binding.
func (k *Keeper) Run(t trace.Trace) (Report, error) {
	return k.RunContext(context.Background(), t)
}

// RunContext is Run with cancellation: the replay stops between simulated
// events when ctx is cancelled and the context's error is returned.
func (k *Keeper) RunContext(ctx context.Context, t trace.Trace) (Report, error) {
	// Empty traits skip strategy binding: the device starts unbound
	// (every tenant on all channels, static allocation), the state
	// Algorithm 2 observes from before its first prediction.
	sess, err := k.runner.NewSession(simrun.Config{
		Device:  k.cfg.Device,
		Options: k.cfg.Options,
		Season:  k.cfg.Season,
	})
	if err != nil {
		return Report{}, err
	}
	dev := sess.Device()
	ctrl := k.Controller(dev)
	onArrival := func(_ int, r trace.Record) {
		ctrl.Observe(dev.Engine().Now(), r)
	}

	res, err := sess.RunObserved(ctx, t, onArrival)
	if err != nil {
		return Report{}, err
	}
	if err := ctrl.Err(); err != nil {
		return Report{}, err
	}
	return Report{Result: res.Result, Switches: ctrl.switches}, nil
}

// TrainConfig bundles the dataset and optimization settings for
// TrainOnSamples.
type TrainConfig struct {
	Dataset dataset.Config
	// Hidden is the hidden-layer width (paper: 64).
	Hidden int
	// Activation for the hidden layer (paper's best: logistic).
	Activation nn.Activation
	Optimizer  nn.Optimizer
	Iterations int
	BatchSize  int
	Seed       int64
}

// trainFrac is the share of samples trained on; the rest is held out
// (the paper's 7:3 split).
const trainFrac = 0.7

// TrainResult carries the trained model and its evaluation.
type TrainResult struct {
	Model   *nn.Network
	History nn.History
	Samples []dataset.Sample
	// TestSamples is the held-out 30% (in shuffled order), kept so
	// callers can compute latency regret from the stored per-strategy
	// measurements without re-simulating.
	TestSamples []dataset.Sample
}

// TrainOnSamples fits the classifier on labelled samples, split 7:3 (the
// offline half of Algorithm 1; dataset.Generate is the labelling half), so
// callers can reuse one dataset across optimizer comparisons, as Figure 4
// does.
func TrainOnSamples(cfg TrainConfig, samples []dataset.Sample) (TrainResult, error) {
	if cfg.Hidden <= 0 {
		cfg.Hidden = 64
	}
	if cfg.Activation == nil {
		cfg.Activation = nn.Logistic{}
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = nn.NewAdam(0)
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 200
	}
	// Shuffle the samples themselves (not just the tensors) so the
	// held-out split can be returned alongside the model.
	shuffled := append([]dataset.Sample(nil), samples...)
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	ds := dataset.ToNN(shuffled)
	train, test := ds.Split(trainFrac)
	cut := train.Len()
	net, err := nn.NewMLP([]int{features.Dim, cfg.Hidden, len(cfg.Dataset.Strategies)},
		cfg.Activation, cfg.Seed)
	if err != nil {
		return TrainResult{}, err
	}
	hist, err := nn.Train(net, train, test, nn.TrainConfig{
		Iterations: cfg.Iterations,
		BatchSize:  cfg.BatchSize,
		Optimizer:  cfg.Optimizer,
		Seed:       cfg.Seed + 1,
	})
	if err != nil {
		return TrainResult{}, err
	}
	return TrainResult{
		Model:       net,
		History:     hist,
		Samples:     samples,
		TestSamples: shuffled[cut:],
	}, nil
}
