package keeper

import (
	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/policy"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
)

// Controller is the keeper's online loop — sliding-window feature
// collection, epoch-boundary ANN prediction, channel (and page-mode)
// re-binding — detached from any particular traffic source. Keeper.Run
// drives one from a trace replay's arrival hook; the serving daemon
// (internal/serve) drives one from live arrivals and wall-clock ticks.
//
// The controller is single-goroutine, like the engine of the device it
// re-binds: callers serialize Observe/Tick with the simulation they pace.
// It sees arrivals only, never completions: an adaptation epoch is Decide,
// re-bind, record the switch. Models are trained offline (TrainOnSamples,
// keeper-train), as in the paper.
//
// Epoch semantics (Algorithm 2, generalized): the first window covers
// [0, Window). When simulated time reaches an epoch boundary the collected
// features are predicted and the device re-bound at that boundary time.
// With AdaptEvery == 0 the controller adapts once and then only observes;
// with AdaptEvery > 0 the window resets at each boundary and the next epoch
// ends AdaptEvery later. Boundaries with no intervening arrivals still fire
// (in order) as soon as time passes them, each seeing the features
// collected since the previous boundary.
type Controller struct {
	// SkipIdle marks the live mode. It suppresses adaptation at epoch
	// boundaries whose window saw no arrivals: the binding is left alone
	// and no switch is recorded. A live server sets it so an idle device is
	// not re-bound once per window on zero information; and because a live
	// controller runs for as long as the process does, it keeps only the
	// switch count and the last switch, not the history (Switches is empty).
	// Trace replay leaves it unset, keeping the historical
	// fire-every-boundary semantics and the full history.
	SkipIdle bool

	k        *Keeper
	dev      *ssd.Device
	col      *features.Collector
	next     sim.Time
	observed int      // arrivals observed in the current window
	done     bool     // single-shot adaptation already fired
	switches []Switch // the full history; trace mode only (see SkipIdle)
	nswitch  int
	last     Switch
	err      error

	// Per-controller policy instances, instantiated lazily from the
	// keeper's source and refreshed at each epoch boundary when the
	// published version changes. The controller owns them outright (they
	// carry the ANN's forward-pass scratch), so prediction takes no lock —
	// and because every controller re-checks at its own next boundary, a
	// SetActive on the source is an atomic, drain-free hot swap across
	// every controller that shares it.
	pol    policy.Policy
	polVer string

	// Health-feature state: retries seen up to the previous epoch boundary,
	// so each window's retry rate is a per-window delta, and the arrival
	// count of the window being adapted on (advance resets c.observed before
	// later boundaries fire).
	lastRetries int64

	// Epoch scratch, reused so a warm adaptation allocates nothing.
	traits []alloc.TenantTraits
	bind   alloc.Binding
}

// Controller returns an online controller bound to dev, with the first
// epoch boundary one Window from time zero. The device must use the
// keeper's geometry (its channel count bounds the strategy space).
func (k *Keeper) Controller(dev *ssd.Device) *Controller {
	return &Controller{
		k:    k,
		dev:  dev,
		col:  features.NewCollector(k.cfg.SaturationIOPS, 0),
		next: k.cfg.Window,
	}
}

// refresh re-instantiates the controller's policy instance when the
// source's published version changed since the last epoch. Version strings
// identify immutable providers, so a plain compare suffices.
func (c *Controller) refresh() {
	act := c.k.source.Active()
	if c.pol == nil || c.polVer != act.Version() {
		c.pol = act.NewPolicy()
		c.polVer = act.Version()
	}
}

// adapt predicts from the current window and re-binds the device at epoch
// boundary time now.
func (c *Controller) adapt(now sim.Time) error {
	c.refresh()
	vec := c.col.Vector(now)
	c.mergeHealth(&vec)
	strat, err := c.pol.Decide(vec)
	if err != nil {
		return err
	}
	c.traits = vec.AppendTraits(c.traits[:0])
	if err := simrun.Apply(c.dev, &c.bind, strat, c.traits, c.k.cfg.Hybrid); err != nil {
		return err
	}
	c.last = Switch{
		At: now, Vector: vec, Strategy: strat, Index: alloc.Index(c.k.cfg.Strategies, strat),
	}
	c.nswitch++
	if !c.SkipIdle {
		c.switches = append(c.switches, c.last)
	}
	return nil
}

// mergeHealth folds the device's health summary into the feature vector for
// this epoch. On an immortal device the snapshot is the zero value, so the
// vector (and therefore every decision) is bit-identical to the pre-health
// controller. RetryRate is a per-window delta — retries since the previous
// boundary over arrivals in the window — so a long-healed burst ages out
// instead of haunting every later epoch.
func (c *Controller) mergeHealth(vec *features.Vector) {
	hs := c.dev.HealthSnapshot()
	if hs == (ssd.HealthSnapshot{}) && c.lastRetries == 0 {
		return
	}
	vec.DeadDieFrac = hs.DeadDieFrac
	delta := hs.ReadRetries - c.lastRetries
	c.lastRetries = hs.ReadRetries
	if c.observed > 0 && delta > 0 {
		rate := float64(delta) / float64(c.observed)
		if rate > 1 {
			rate = 1
		}
		vec.RetryRate = rate
	}
	if hs.WearSpread > 1 {
		hs.WearSpread = 1
	}
	vec.WearSpread = hs.WearSpread
}

// advance fires every epoch boundary at or before now, in order. It is a
// no-op once the controller has failed or finished its single adaptation.
func (c *Controller) advance(now sim.Time) {
	if c.err != nil || c.done {
		return
	}
	for now >= c.next {
		if !c.SkipIdle || c.observed > 0 {
			if err := c.adapt(c.next); err != nil {
				c.err = err
				return
			}
			if c.k.cfg.AdaptEvery <= 0 {
				c.done = true
				return
			}
		}
		c.col.Reset(c.next)
		c.observed = 0
		step := c.k.cfg.AdaptEvery
		if step <= 0 {
			// Idle single shot: slide the window until traffic appears.
			step = c.k.cfg.Window
		}
		c.next += step
	}
}

// Observe records one request arrival at simulated time now, first firing
// any epoch boundaries the arrival stepped past. Trace mode calls it from
// the replay's arrival hook; live mode calls it at admission.
func (c *Controller) Observe(now sim.Time, r trace.Record) {
	c.advance(now)
	if c.err != nil {
		return
	}
	c.observed++
	c.col.Observe(r)
}

// Tick fires any epoch boundaries at or before now without recording an
// arrival. Live traffic pauses between requests; the daemon's pacer ticks
// the controller at Due so adaptation epochs track time, not just arrivals.
func (c *Controller) Tick(now sim.Time) { c.advance(now) }

// Due returns the next epoch boundary at which Tick would act, and false
// when none would: once the controller has failed or finished its single
// adaptation, and in live mode while the window has no arrivals (idle
// boundaries only slide the window, which the next Observe or Tick does as
// well). A pacer need not wake for time to pass while Due is false.
func (c *Controller) Due() (sim.Time, bool) {
	if c.err != nil || c.done || (c.SkipIdle && c.observed == 0) {
		return 0, false
	}
	return c.next, true
}

// DetachTenant removes a departing tenant's contributions from the current
// feature window: after a tenant-granular drain the workload is gone, and
// the next adaptation epoch must not re-bind channels on its ghost
// features. Subsequent Observes for other tenants proceed normally.
func (c *Controller) DetachTenant(tenant int) { c.col.ClearTenant(tenant) }

// AttachTenant (re)admits a tenant to feature collection after a handoff
// replay seats it here. The collector counts whatever arrives, so attaching
// only clears any stale window contributions — the tenant starts its life
// on this device with a clean feature slate.
func (c *Controller) AttachTenant(tenant int) { c.col.ClearTenant(tenant) }

// Err returns the first prediction or re-binding failure; once set the
// controller stops adapting and observing.
func (c *Controller) Err() error { return c.err }

// Switches returns a copy of the re-allocations performed so far. A live
// (SkipIdle) controller keeps no history and returns none; read it through
// SwitchCount and LastSwitch.
func (c *Controller) Switches() []Switch {
	return append([]Switch(nil), c.switches...)
}

// SwitchCount returns the number of re-allocations performed so far (the
// daemon's metrics path polls it).
func (c *Controller) SwitchCount() int { return c.nswitch }

// LastSwitch returns the most recent re-allocation, if any.
func (c *Controller) LastSwitch() (Switch, bool) { return c.last, c.nswitch > 0 }

// PolicyVersion returns the version of the policy applied at the last
// adaptation epoch ("" before the first). A hot swap becomes visible here
// one epoch after SetActive.
func (c *Controller) PolicyVersion() string { return c.polVer }
