// Package simrun is the simulation-run layer: the one place that owns the
// construct-wire-replay lifecycle of a simulated SSD (nand geometry → ssd
// controller → FTL → seasoning → strategy binding → trace replay → stats).
// Every consumer — the figure drivers, the dataset labeler, the online
// keeper, the CLIs and the examples — runs simulations through a Runner
// instead of wiring device + FTL + engine by hand.
//
// A Runner owns one simulation engine and one probe, and reuses both across
// sessions: Engine.Reset keeps the event heap's capacity, so loops that run
// many simulations back to back (the 42-strategy label loop) stop paying a
// heap allocation per run. Runs accept a context.Context and stop between
// events when it is cancelled. Probes (sim.Probe) observe every layer of a
// run; NewCounterProbe aggregates the observations into a stats.Counters
// registry, and the default no-op probe keeps the hot path allocation-free.
package simrun

import (
	"context"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/ftl"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/stats"
	"ssdkeeper/internal/trace"
)

// Seasoning describes how the device is aged before traffic (see
// ftl.Season). The zero value leaves the device factory-fresh, which
// disables garbage collection for realistic workload sizes; experiments use
// DefaultSeasoning so GC stalls — a dominant interference source on a
// steady-state SSD — are present.
type Seasoning struct {
	ValidFrac  float64 // fraction of seasoned pages holding live cold data
	FreeBlocks int     // free blocks left per plane
}

// Enabled reports whether any aging is requested.
func (s Seasoning) Enabled() bool { return s.ValidFrac > 0 || s.FreeBlocks > 0 }

// DefaultSeasoning returns the aging used throughout the evaluation: planes
// nearly full, half the resident pages live. With five free blocks per
// plane, garbage collection engages within the first few thousand requests
// of a typical mix.
func DefaultSeasoning() Seasoning {
	return Seasoning{ValidFrac: 0.5, FreeBlocks: 5}
}

// Config bundles everything needed to build a device and replay a trace on
// it under one strategy.
type Config struct {
	Device   nand.Config
	Options  ssd.Options
	Strategy alloc.Strategy
	// Traits drive the strategy binding. Empty traits skip binding
	// entirely, leaving every tenant on all channels with static
	// allocation — the state an online controller (the keeper) starts
	// from before its first adaptation.
	Traits []alloc.TenantTraits
	// Hybrid enables the paper's hybrid page allocator: dynamic page
	// allocation for write-dominated tenants, static for read-dominated
	// ones. When false every tenant uses static allocation (the SSDSim
	// default).
	Hybrid bool
	// Season ages the device before the run.
	Season Seasoning
}

// Result couples a device result with the probe counters captured during
// the run. Counters is nil when the runner has no counter probe.
type Result struct {
	ssd.Result
	Counters *stats.Counters
}

// Option configures a Runner.
type Option func(*Runner)

// WithProbe makes every session built by the runner instrument all layers
// (engine, buses, dies, FTL) with p.
func WithProbe(p sim.Probe) Option {
	return func(r *Runner) { r.probe = p }
}

// Runner owns a reusable simulation engine and a probe. It is single-
// goroutine, like the engine itself; concurrent labeling uses one Runner
// per worker.
type Runner struct {
	eng   *sim.Engine
	probe sim.Probe
	// col is the latency collector shared by every session the runner
	// builds; NewSession resets it, and results snapshot out of it, so
	// back-to-back runs reuse its accumulators and histogram storage.
	col *stats.Collector

	// dev caches the previous session's device. When the next session asks
	// for the same geometry and options the device is reused — the FTL keeps
	// its materialized plane storage, the resources their queues — instead
	// of rebuilt, which removes nearly all per-session allocation from
	// back-to-back run loops.
	dev     *ssd.Device
	devCfg  nand.Config
	devOpts ssd.Options
	// ckptSeason is the seasoning dev is checkpointed at, when ckpt is set.
	// A session asking for it rewinds the device instead of re-seasoning it.
	ckptSeason Seasoning
	ckpt       bool
}

// NewRunner returns a runner with a fresh engine and, unless WithProbe says
// otherwise, no-op instrumentation.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{eng: sim.NewEngine(), col: stats.NewCollector()}
	for _, o := range opts {
		o(r)
	}
	return r
}

// NewInstrumentedRunner returns a runner whose sessions are instrumented
// with a CounterProbe for the given geometry — the standard shape for
// serving shards and drain-replay verification, which both want the probe's
// counter registry alongside the device result.
func NewInstrumentedRunner(cfg nand.Config) *Runner {
	return NewRunner(WithProbe(NewCounterProbe(cfg)))
}

// Probe returns the runner's probe (nil when running uninstrumented).
func (r *Runner) Probe() sim.Probe { return r.probe }

// Counters returns the registry behind the runner's probe, or nil when the
// probe does not expose one. Counter values accumulate across sessions
// until Reset is called on the registry.
func (r *Runner) Counters() *stats.Counters {
	if cp, ok := r.probe.(interface{ Counters() *stats.Counters }); ok {
		return cp.Counters()
	}
	return nil
}

// Session is one configured device ready to replay traffic: built on the
// runner's (reset) engine, seasoned, and with the strategy bound. Starting
// a new session on the same runner invalidates the previous one.
type Session struct {
	r   *Runner
	dev *ssd.Device
}

// NewSession resets the runner's engine and builds a device on it per cfg:
// construct, season, bind the strategy. Counters accumulated by a counter
// probe are zeroed, so each session reports its own run.
//
// A device with the previous session's geometry and options is reused. The
// first reuse resets it, seasons it and checkpoints that state; later
// sessions at the same seasoning rewind to the checkpoint, restoring only
// the blocks the last run touched. A fresh device seasons once and keeps no
// checkpoint.
func (r *Runner) NewSession(cfg Config) (*Session, error) {
	r.eng.Reset()
	r.col.Reset()
	if cs := r.Counters(); cs != nil {
		cs.Reset()
	}
	dev, err := r.device(cfg)
	if err != nil {
		return nil, err
	}
	if len(cfg.Traits) > 0 {
		if err := Apply(dev, cfg.Strategy, cfg.Traits, cfg.Hybrid); err != nil {
			return nil, err
		}
	}
	return &Session{r: r, dev: dev}, nil
}

// device returns a seasoned, unbound device for cfg: rewound, reset and
// checkpointed, or built fresh.
func (r *Runner) device(cfg Config) (*ssd.Device, error) {
	if r.dev != nil && cfg.Device == r.devCfg && cfg.Options == r.devOpts {
		dev := r.dev
		if r.ckpt && cfg.Season == r.ckptSeason {
			dev.Rewind()
			return dev, nil
		}
		r.ckpt = false
		dev.Reset()
		if err := season(dev, cfg.Season); err != nil {
			return nil, err
		}
		if err := dev.Checkpoint(); err != nil {
			return nil, err
		}
		r.ckpt, r.ckptSeason = true, cfg.Season
		return dev, nil
	}
	dev, err := ssd.NewOnCollector(r.eng, r.probe, r.col, cfg.Device, cfg.Options)
	if err != nil {
		return nil, err
	}
	r.dev, r.devCfg, r.devOpts, r.ckpt = dev, cfg.Device, cfg.Options, false
	return dev, season(dev, cfg.Season)
}

// season ages dev per s, if s asks for any aging.
func season(dev *ssd.Device, s Seasoning) error {
	if !s.Enabled() {
		return nil
	}
	return dev.FTL().Season(s.ValidFrac, s.FreeBlocks)
}

// Device exposes the session's device, for drivers that pump the engine
// themselves (the serve tier's shards) or rebind strategies mid-run (the
// keeper).
func (s *Session) Device() *ssd.Device { return s.dev }

// Run replays the trace and returns the result with the runner's counters
// attached. It stops early with ctx's error when the context is cancelled.
func (s *Session) Run(ctx context.Context, t trace.Trace) (Result, error) {
	return s.RunObserved(ctx, t, nil)
}

// RunObserved is Run with an arrival hook: onArrival (may be nil) sees each
// record at its arrival instant — the keeper's features collector and
// window timer hang off it.
func (s *Session) RunObserved(ctx context.Context, t trace.Trace, onArrival func(i int, r trace.Record)) (Result, error) {
	res, err := s.dev.RunContext(ctx, t, onArrival)
	if err != nil {
		return Result{}, err
	}
	return Result{Result: res, Counters: s.r.Counters()}, nil
}

// RunTenants replays the trace submitting only the records of the tenants
// marked in only, or every record when only is nil (ssd.Device.RunTenants),
// and returns the device-wide latency moments: the cost of one channel group
// of the session's strategy, or of the whole strategy, measured on the same
// seasoned, bound device.
func (s *Session) RunTenants(ctx context.Context, t trace.Trace, only []bool) (stats.Latency, error) {
	return s.dev.RunTenants(ctx, t, only)
}

// Run builds a session for cfg and replays the trace on it — the whole
// lifecycle in one call.
func (r *Runner) Run(ctx context.Context, cfg Config, t trace.Trace) (Result, error) {
	sess, err := r.NewSession(cfg)
	if err != nil {
		return Result{}, err
	}
	return sess.Run(ctx, t)
}

// Apply binds a strategy onto a device's FTL: channel sets for every tenant
// and, when hybrid is set, the per-tenant page allocation mode.
func Apply(dev *ssd.Device, s alloc.Strategy, traits []alloc.TenantTraits, hybrid bool) error {
	binding, err := s.Bind(dev.Config().Channels, traits)
	if err != nil {
		return err
	}
	for tenant, set := range binding.Sets {
		if err := dev.FTL().SetTenantChannels(tenant, set); err != nil {
			return err
		}
		mode := ftl.StaticAlloc
		if hybrid && traits[tenant].WriteDominated {
			mode = ftl.DynamicAlloc
		}
		dev.FTL().SetTenantMode(tenant, mode)
	}
	return nil
}
