// Package ssdkeeper is the public API of the SSDKeeper reproduction: a
// trace-driven multi-channel SSD simulator, a tenant-aware FTL, the
// channel-allocation strategy space, the feature/learning pipeline, and
// SSDKeeper itself — the self-adapting channel allocator of Liu et al.
// (IPDPS 2020).
//
// The implementation lives in internal packages; this package re-exports
// the stable surface so applications need a single import:
//
//	dev := ssdkeeper.EvalConfig()
//	mix, _ := ssdkeeper.BuildMix(ssdkeeper.Mixes()[1], ssdkeeper.TableII(0.002, dev.PageSize, 1), 100000)
//	res, _ := ssdkeeper.Run(ssdkeeper.RunConfig{
//		Device:   dev,
//		Strategy: ssdkeeper.Strategy{Kind: ssdkeeper.Shared},
//		Traits:   make([]ssdkeeper.TenantTraits, 4),
//		Season:   ssdkeeper.DefaultSeasoning(),
//	}, mix)
//	fmt.Println(res.Device.Total())
//
// The full offline-learning plus online-allocation flow is in
// examples/multitenant; the paper's evaluation is regenerated by
// cmd/experiments and the benchmarks in bench_test.go.
package ssdkeeper

import (
	"context"
	"io"

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
	"ssdkeeper/internal/stats"
	"ssdkeeper/internal/trace"
	"ssdkeeper/internal/workload"
)

// ---- Simulated time ----

// Time is a point in simulated time (nanoseconds since simulation start).
type Time = sim.Time

// Simulated-time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// ---- Device geometry and configuration ----

// Config describes SSD geometry and timing (Table I of the paper).
type Config = nand.Config

// Addr identifies one physical flash page.
type Addr = nand.Addr

// DefaultConfig returns the paper's Table I device: 8 channels, 512GB.
func DefaultConfig() Config { return nand.DefaultConfig() }

// EvalConfig returns Table I timing on a capacity-scaled geometry, the
// configuration the experiment harness uses (see nand.EvalConfig).
func EvalConfig() Config { return nand.EvalConfig() }

// Options tunes device behaviour (arbitration, cache registers, mapping
// cache, fault plan).
type Options = ssd.Options

// DefaultOptions returns the paper's device options (FIFO arbitration).
func DefaultOptions() Options { return ssd.DefaultOptions() }

// ---- Traces and workloads ----

// Op is a request direction (Read or Write).
type Op = trace.Op

// Request directions.
const (
	Read  = trace.Read
	Write = trace.Write
)

// Record is one block-level I/O request.
type Record = trace.Record

// Trace is a time-ordered request sequence.
type Trace = trace.Trace

// Profile parameterizes the synthetic workload generator.
type Profile = trace.Profile

// TraceStats summarizes a trace (Table II-style).
type TraceStats = trace.Stats

// GenerateTrace synthesizes a single-tenant trace from a profile.
func GenerateTrace(p Profile) (Trace, error) { return trace.Generate(p) }

// TableII returns synthetic equivalents of the paper's six MSR workloads.
func TableII(scale float64, pageSize int, seed int64) map[string]Profile {
	return trace.TableII(scale, pageSize, seed)
}

// TableIINames lists the Table II workloads in paper order.
func TableIINames() []string { return trace.TableIINames() }

// Mixes returns the paper's Table IV tenant compositions (Mix1..Mix4).
func Mixes() [][4]string { return trace.Mixes() }

// BuildMix generates, tags, merges and truncates a four-tenant mix.
func BuildMix(names [4]string, profiles map[string]Profile, head int) (Trace, error) {
	return trace.BuildMix(names, profiles, head)
}

// MergeTraces interleaves traces chronologically.
func MergeTraces(traces ...Trace) Trace { return trace.Merge(traces...) }

// ReadMSR parses an MSR-Cambridge CSV trace.
func ReadMSR(r io.Reader) (Trace, map[string]int, error) { return trace.ReadMSR(r) }

// WriteMSR serializes a trace in MSR CSV format.
func WriteMSR(w io.Writer, t Trace) error { return trace.WriteMSR(w, t) }

// TenantSpec describes one tenant of a synthetic mix.
type TenantSpec = workload.TenantSpec

// MixSpec describes a synthetic mixed workload by the quantities SSDKeeper's
// features observe.
type MixSpec = workload.MixSpec

// ---- Channel allocation strategies ----

// Strategy is one channel-allocation strategy.
type Strategy = alloc.Strategy

// StrategyKind discriminates strategy families.
type StrategyKind = alloc.Kind

// Strategy families.
const (
	Shared   = alloc.Shared
	Isolated = alloc.Isolated
	TwoGroup = alloc.TwoGroup
	FourWay  = alloc.FourWay
)

// TenantTraits carries per-tenant dominance for strategy binding.
type TenantTraits = alloc.TenantTraits

// Binding maps tenants to channel sets.
type Binding = alloc.Binding

// ParseStrategy reads the paper's notation ("Shared", "7:1", "5:1:1:1").
func ParseStrategy(name string, channels int) (Strategy, error) {
	return alloc.Parse(name, channels)
}

// TwoTenantSpace returns the 8-strategy space of Figure 2.
func TwoTenantSpace(channels int) []Strategy { return alloc.TwoTenantSpace(channels) }

// FourTenantSpace returns the 42-strategy space of Section IV.C.
func FourTenantSpace(channels int) []Strategy { return alloc.FourTenantSpace(channels) }

// ---- Running simulations ----

// Device is one simulated SSD.
type Device = ssd.Device

// Result summarizes one simulation run.
type Result = ssd.Result

// PageMode selects static or dynamic page allocation.
type PageMode = ftl.PageMode

// Page allocation modes.
const (
	StaticAlloc  = ftl.StaticAlloc
	DynamicAlloc = ftl.DynamicAlloc
)

// Seasoning ages the device before a run (steady-state GC).
type Seasoning = simrun.Seasoning

// DefaultSeasoning returns the evaluation's device aging.
func DefaultSeasoning() Seasoning { return simrun.DefaultSeasoning() }

// RunConfig bundles a simulation: device, options, strategy, traits, page
// allocation and seasoning.
type RunConfig = simrun.Config

// Run replays a trace under one strategy and returns the result.
func Run(rc RunConfig, t Trace) (Result, error) { return RunContext(context.Background(), rc, t) }

// NewDevice builds a device with a strategy bound and seasoning applied.
func NewDevice(rc RunConfig) (*Device, error) {
	sess, err := simrun.NewRunner().NewSession(rc)
	if err != nil {
		return nil, err
	}
	return sess.Device(), nil
}

// ---- Simulation run layer ----

// Runner owns a reusable simulation engine plus an optional probe; every
// production simulation runs through one (see internal/simrun).
type Runner = simrun.Runner

// Session is one configured device built by a Runner, ready to replay
// traffic.
type Session = simrun.Session

// RunnerOption configures NewRunner.
type RunnerOption = simrun.Option

// NewRunner returns a runner; pass WithProbe to instrument its runs.
func NewRunner(opts ...RunnerOption) *Runner { return simrun.NewRunner(opts...) }

// WithProbe instruments every layer of the runner's sessions with p.
func WithProbe(p Probe) RunnerOption { return simrun.WithProbe(p) }

// Probe observes the inside of a simulation run (engine events, bus/die
// queueing and grants, GC passes, mapping-cache outcomes).
type Probe = sim.Probe

// Counters is an insertion-ordered registry of named run counters.
type Counters = stats.Counters

// CounterProbe aggregates probe observations into a Counters registry.
type CounterProbe = simrun.CounterProbe

// NewCounterProbe builds a counter probe sized for a device geometry.
func NewCounterProbe(cfg Config) *CounterProbe { return simrun.NewCounterProbe(cfg) }

// InstrumentedResult couples a device result with the counters captured
// during the run.
type InstrumentedResult = simrun.Result

// RunContext replays a trace on a fresh runner with cancellation support.
func RunContext(ctx context.Context, rc RunConfig, t Trace) (Result, error) {
	res, err := simrun.NewRunner().Run(ctx, rc, t)
	if err != nil {
		return Result{}, err
	}
	return res.Result, nil
}

// ---- Features ----

// FeatureVector is the paper's 9-dimensional workload descriptor.
type FeatureVector = features.Vector

// FeaturesCollector accumulates per-tenant request statistics over a window.
type FeaturesCollector = features.Collector

// NewFeaturesCollector returns a collector calibrated to a saturation rate.
func NewFeaturesCollector(saturationIOPS float64, start Time) *FeaturesCollector {
	return features.NewCollector(saturationIOPS, start)
}

// ---- Learning ----

// Network is a dense feed-forward classifier.
type Network = nn.Network

// Activation is an elementwise nonlinearity for the hidden layer.
type Activation = nn.Activation

// Activations the paper compares.
type (
	// ReLU is max(0, x).
	ReLU = nn.ReLU
	// Logistic is the sigmoid (the paper's best configuration).
	Logistic = nn.Logistic
	// Tanh is the hyperbolic tangent.
	Tanh = nn.Tanh
)

// TrainingHistory is a training run's loss/accuracy trajectory.
type TrainingHistory = nn.History

// Optimizer applies gradient updates (SGD, momentum, AdaGrad, RMSProp,
// Adam).
type Optimizer = nn.Optimizer

// Optimizer constructors with the paper's default hyperparameters.
var (
	NewSGD      = nn.NewSGD
	NewMomentum = nn.NewMomentum
	NewAdaGrad  = nn.NewAdaGrad
	NewRMSProp  = nn.NewRMSProp
	NewAdam     = nn.NewAdam
)

// LoadModel reads a model saved with Network.Save.
func LoadModel(r io.Reader) (*Network, error) { return nn.Load(r) }

// Sample is one labelled mixed workload.
type Sample = dataset.Sample

// DatasetConfig controls label generation.
type DatasetConfig = dataset.Config

// GenerateDataset runs the label-generation pipeline (Algorithm 1).
// Cancelling ctx aborts generation and returns ctx's error.
func GenerateDataset(ctx context.Context, cfg DatasetConfig, progress func(done, total int)) ([]Sample, error) {
	return dataset.Generate(ctx, cfg, progress)
}

// SaveDataset / LoadDataset persist samples as JSON lines.
func SaveDataset(w io.Writer, samples []Sample) error { return dataset.Save(w, samples) }

// LoadDataset reads samples written by SaveDataset.
func LoadDataset(r io.Reader) ([]Sample, error) { return dataset.LoadSamples(r) }

// ---- Policy layer ----

// Policy decides the channel-allocation strategy for one feature vector. A
// Policy instance carries private inference scratch and is owned by a single
// consumer; share work across goroutines by instantiating one Policy per
// goroutine from a PolicyProvider.
type Policy = policy.Policy

// PolicyProvider is a versioned, immutable policy artifact (a loaded
// checkpoint or a pinned strategy), safe to share across goroutines.
type PolicyProvider = policy.Provider

// PolicySource atomically publishes the active provider to concurrent
// consumers — the hot-reload primitive.
type PolicySource = policy.Source

// NewPolicySource returns a source serving the given active provider.
func NewPolicySource(active PolicyProvider) (*PolicySource, error) {
	return policy.NewSource(active)
}

// PolicyModel wraps a trained network as a versioned provider.
type PolicyModel = policy.Model

// NewPolicyModel validates a network against a strategy space and wraps it
// under a version name.
func NewPolicyModel(version string, net *Network, strategies []Strategy) (*PolicyModel, error) {
	return policy.NewModel(version, net, strategies)
}

// NewANNPolicy returns one consumer's inference policy over a trained
// network.
func NewANNPolicy(net *Network, strategies []Strategy) (*policy.ANNPolicy, error) {
	return policy.NewANN(net, strategies)
}

// StaticPolicy always answers one pinned strategy.
type StaticPolicy = policy.StaticPolicy

// StaticProvider publishes a StaticPolicy under a version name.
type StaticProvider = policy.StaticProvider

// CheckpointMeta is the training provenance recorded in a checkpoint.
type CheckpointMeta = policy.Meta

// SaveCheckpoint writes a model as a versioned checkpoint: the serialized
// network wrapped in an envelope with a format version, metadata, a
// feature-schema hash, and a content checksum.
func SaveCheckpoint(w io.Writer, net *Network, meta CheckpointMeta, channels int, strategies []Strategy) error {
	return policy.SaveCheckpoint(w, net, meta, channels, strategies)
}

// LoadCheckpoint reads and verifies a checkpoint written by SaveCheckpoint
// against the feature schema implied by the channel count and strategy
// space.
func LoadCheckpoint(r io.Reader, channels int, strategies []Strategy) (*Network, CheckpointMeta, error) {
	return policy.LoadCheckpoint(r, channels, strategies)
}

// ModelRegistry loads versioned checkpoints from a directory (newest version
// is lexically greatest).
type ModelRegistry = policy.Registry

// NewModelRegistry binds a checkpoint directory to a device schema.
func NewModelRegistry(dir string, channels int, strategies []Strategy) (*ModelRegistry, error) {
	return policy.NewRegistry(dir, channels, strategies)
}

// ---- SSDKeeper ----

// Keeper binds a trained model to a device configuration and manages runs
// (Algorithm 2).
type Keeper = keeper.Keeper

// KeeperConfig parameterizes a Keeper.
type KeeperConfig = keeper.Config

// KeeperReport is the outcome of one managed run.
type KeeperReport = keeper.Report

// NewKeeper validates the model against the config and returns a Keeper.
func NewKeeper(cfg KeeperConfig, model *Network) (*Keeper, error) {
	return keeper.New(cfg, model)
}

// NewKeeperWithPolicy returns a Keeper whose decisions come from a versioned
// provider (a registry checkpoint or a static strategy) instead of
// an in-memory network. Swap providers at runtime via Keeper.Source.
func NewKeeperWithPolicy(cfg KeeperConfig, prov PolicyProvider) (*Keeper, error) {
	return keeper.NewWithProvider(cfg, prov)
}

// TrainConfig bundles dataset and optimization settings for training.
type TrainConfig = keeper.TrainConfig

// TrainResult carries a trained model and its evaluation.
type TrainResult = keeper.TrainResult

// Train runs the full offline pipeline: generate labels, split, fit.
// Cancelling ctx aborts label generation.
func Train(ctx context.Context, cfg TrainConfig, progress func(done, total int)) (TrainResult, error) {
	return keeper.Train(ctx, cfg, progress)
}

// TrainOnSamples fits the classifier on pre-generated samples.
func TrainOnSamples(cfg TrainConfig, samples []Sample) (TrainResult, error) {
	return keeper.TrainOnSamples(cfg, samples)
}

// ---- Reproducing the paper's evaluation ----

// Env is the evaluation environment (device, seasoning, strategy space).
type Env = experiments.Env

// Scale sets experiment sizes.
type Scale = experiments.Scale

// NewEnv returns the standard evaluation environment.
func NewEnv() Env { return experiments.NewEnv() }

// Experiment scale presets.
var (
	QuickScale   = experiments.QuickScale
	DefaultScale = experiments.DefaultScale
	PaperScale   = experiments.PaperScale
)

// Experiment drivers, one per paper artifact.
var (
	Fig2          = experiments.Fig2
	Fig2Adaptive  = experiments.Fig2Adaptive
	BuildDataset  = experiments.BuildDataset
	Fig4Table3    = experiments.Fig4Table3
	TrainBest     = experiments.TrainBest
	Fig5Table5    = experiments.Fig5Table5
	Fig6          = experiments.Fig6
	Fig6Policy    = experiments.Fig6Policy
	EvaluateModel = experiments.EvaluateModel
	LabelBalance  = experiments.LabelBalance
)
