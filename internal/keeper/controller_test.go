package keeper

import (
	"context"
	"math"
	"testing"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/trace"
	"ssdkeeper/internal/workload"
)

// parityMix is a deterministic four-tenant mix that crosses several epoch
// boundaries under the parity config.
func parityMix(t *testing.T, pageSize int) trace.Trace {
	t.Helper()
	spec := workload.MixSpec{
		Tenants: []workload.TenantSpec{
			{WriteRatio: 0.9, Share: 0.5},
			{WriteRatio: 0.1, Share: 0.3},
			{WriteRatio: 0.8, Share: 0.1},
			{WriteRatio: 0.2, Share: 0.1},
		},
		Requests: 6000, IOPS: 9000, Seed: 42,
	}
	tr, err := spec.Build(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestControllerTraceParity proves the Controller extraction changed
// nothing in trace mode: Keeper.RunContext (which now drives a Controller
// from the arrival hook) must produce exactly the switches and result of
// the pre-extraction inline loop, which this test replays verbatim against
// its own session.
func TestControllerTraceParity(t *testing.T) {
	cfg := testConfig()
	cfg.Season = simrun.DefaultSeasoning()
	cfg.AdaptEvery = 150 * sim.Millisecond
	cfg.Hybrid = true
	model := forcedModel(t, len(cfg.Strategies), 2)
	tr := parityMix(t, cfg.Device.PageSize)

	k, err := New(cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the pre-Controller keeper loop, inlined.
	sess, err := simrun.NewRunner().NewSession(simrun.Config{
		Device: cfg.Device, Options: cfg.Options, Season: cfg.Season,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := sess.Device()
	kRef, err := New(cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	var want Report
	col := features.NewCollector(cfg.SaturationIOPS, 0)
	adapt := func(now sim.Time) error {
		vec := col.Vector(now)
		strat, idx, err := kRef.Predict(vec)
		if err != nil {
			return err
		}
		if err := simrun.Apply(dev, new(alloc.Binding), strat, vec.Traits(), cfg.Hybrid); err != nil {
			return err
		}
		want.Switches = append(want.Switches, Switch{At: now, Vector: vec, Strategy: strat, Index: idx})
		return nil
	}
	var hookErr error
	next := cfg.Window
	onArrival := func(_ int, r trace.Record) {
		if hookErr != nil {
			return
		}
		now := dev.Engine().Now()
		for now >= next {
			if err := adapt(next); err != nil {
				hookErr = err
				return
			}
			if cfg.AdaptEvery <= 0 {
				next = sim.Time(int64(^uint64(0) >> 2))
				break
			}
			col.Reset(next)
			next += cfg.AdaptEvery
		}
		col.Observe(r)
	}
	res, err := sess.RunObserved(context.Background(), tr, onArrival)
	if err != nil {
		t.Fatal(err)
	}
	if hookErr != nil {
		t.Fatal(hookErr)
	}
	want.Result = res.Result

	if len(got.Switches) != len(want.Switches) {
		t.Fatalf("switch count %d, reference %d", len(got.Switches), len(want.Switches))
	}
	for i := range want.Switches {
		g, w := got.Switches[i], want.Switches[i]
		if g.At != w.At || g.Index != w.Index || g.Vector != w.Vector {
			t.Errorf("switch %d: got {at=%v idx=%d %v}, reference {at=%v idx=%d %v}",
				i, g.At, g.Index, g.Vector, w.At, w.Index, w.Vector)
		}
	}
	if got.Makespan != want.Makespan {
		t.Errorf("makespan %v, reference %v", got.Makespan, want.Makespan)
	}
	for _, c := range []struct {
		name     string
		got, ref float64
	}{
		{"read mean", got.Device.Read.Mean(), want.Device.Read.Mean()},
		{"write mean", got.Device.Write.Mean(), want.Device.Write.Mean()},
		{"fairness", got.Fairness, want.Fairness},
	} {
		if c.got != c.ref || math.IsNaN(c.got) != math.IsNaN(c.ref) {
			t.Errorf("%s %v, reference %v", c.name, c.got, c.ref)
		}
	}
	if got.FTL != want.FTL {
		t.Errorf("FTL counters %+v, reference %+v", got.FTL, want.FTL)
	}
}

// TestControllerTickFiresGapEpochs drives a controller by hand: epoch
// boundaries that pass with no arrivals must still fire, in order, when
// Tick observes the passage of time.
func TestControllerTickFiresGapEpochs(t *testing.T) {
	cfg := testConfig()
	cfg.Window = 10 * sim.Millisecond
	cfg.AdaptEvery = 10 * sim.Millisecond
	k, err := New(cfg, forcedModel(t, len(cfg.Strategies), 1))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := simrun.NewRunner().NewSession(simrun.Config{Device: cfg.Device, Options: cfg.Options})
	if err != nil {
		t.Fatal(err)
	}
	c := k.Controller(sess.Device())

	rec := trace.Record{Tenant: 0, Op: trace.Write, Offset: 0, Size: 4096}
	c.Observe(1*sim.Millisecond, rec)
	if c.SwitchCount() != 0 {
		t.Fatalf("switched before the first window elapsed")
	}
	// Jump past four boundaries with no traffic at all.
	c.Tick(45 * sim.Millisecond)
	if got := c.SwitchCount(); got != 4 {
		t.Fatalf("tick past 4 boundaries fired %d switches", got)
	}
	sw := c.Switches()
	for i, s := range sw {
		if want := sim.Time(10+10*i) * sim.Millisecond; s.At != want {
			t.Errorf("switch %d at %v, want %v", i, s.At, want)
		}
		if s.Index != 1 {
			t.Errorf("switch %d predicted class %d, want 1", i, s.Index)
		}
	}
	// Only the first window saw the arrival.
	if sw[0].Vector.Prop[0] != 1 {
		t.Errorf("first window lost its arrival: %v", sw[0].Vector)
	}
	if sw[1].Vector.Prop[0] != 0 {
		t.Errorf("second window inherited arrivals: %v", sw[1].Vector)
	}
	if _, ok := c.LastSwitch(); !ok {
		t.Error("LastSwitch empty after switches")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerSingleShot reproduces the paper's one-adaptation mode:
// AdaptEvery == 0 must adapt exactly once no matter how far time advances.
func TestControllerSingleShot(t *testing.T) {
	cfg := testConfig() // AdaptEvery 0
	k, err := New(cfg, forcedModel(t, len(cfg.Strategies), 2))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := simrun.NewRunner().NewSession(simrun.Config{Device: cfg.Device, Options: cfg.Options})
	if err != nil {
		t.Fatal(err)
	}
	c := k.Controller(sess.Device())
	rec := trace.Record{Tenant: 1, Op: trace.Read, Offset: 0, Size: 4096}
	c.Observe(10*sim.Millisecond, rec)
	c.Tick(10 * cfg.Window)
	c.Observe(20*cfg.Window, rec)
	if got := c.SwitchCount(); got != 1 {
		t.Fatalf("single-shot controller switched %d times", got)
	}
	if sw := c.Switches(); sw[0].At != cfg.Window {
		t.Errorf("single switch at %v, want %v", sw[0].At, cfg.Window)
	}
}

// TestControllerSkipIdleWindows covers the live-server mode: with SkipIdle
// set, boundaries whose window saw no arrivals pass silently (no re-bind, no
// switch), and adaptation resumes at the first boundary after traffic.
func TestControllerSkipIdleWindows(t *testing.T) {
	cfg := testConfig()
	cfg.Window = 10 * sim.Millisecond
	cfg.AdaptEvery = 10 * sim.Millisecond
	k, err := New(cfg, forcedModel(t, len(cfg.Strategies), 1))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := simrun.NewRunner().NewSession(simrun.Config{Device: cfg.Device, Options: cfg.Options})
	if err != nil {
		t.Fatal(err)
	}
	c := k.Controller(sess.Device())
	c.SkipIdle = true

	rec := trace.Record{Tenant: 0, Op: trace.Write, Offset: 0, Size: 4096}
	c.Observe(1*sim.Millisecond, rec)
	// Boundary 10ms fires (its window has the arrival); 20/30/40ms are idle.
	c.Tick(45 * sim.Millisecond)
	if got := c.SwitchCount(); got != 1 {
		t.Fatalf("switches after idle gap = %d, want 1", got)
	}
	if last, _ := c.LastSwitch(); last.At != 10*sim.Millisecond {
		t.Errorf("first switch at %v, want 10ms", last.At)
	}
	// Traffic in window [40,50)ms re-arms the 50ms boundary.
	c.Observe(46*sim.Millisecond, rec)
	c.Tick(55 * sim.Millisecond)
	if got := c.SwitchCount(); got != 2 {
		t.Fatalf("switches after traffic resumed = %d, want 2", got)
	}
	if last, _ := c.LastSwitch(); last.At != 50*sim.Millisecond {
		t.Errorf("second switch at %v, want 50ms", last.At)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerDetachAttachTenant pins the migration contract: detaching a
// tenant erases its in-window feature contribution, and a reattached tenant's
// features restart from zero — the handoff destination never inherits arrival
// history from before the move.
func TestControllerDetachAttachTenant(t *testing.T) {
	cfg := testConfig()
	cfg.Window = 10 * sim.Millisecond
	cfg.AdaptEvery = 10 * sim.Millisecond
	k, err := New(cfg, forcedModel(t, len(cfg.Strategies), 1))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := simrun.NewRunner().NewSession(simrun.Config{Device: cfg.Device, Options: cfg.Options})
	if err != nil {
		t.Fatal(err)
	}
	c := k.Controller(sess.Device())

	wr := trace.Record{Tenant: 0, Op: trace.Write, Offset: 0, Size: 4096}
	rd := trace.Record{Tenant: 1, Op: trace.Read, Offset: 0, Size: 4096}
	c.Observe(1*sim.Millisecond, wr)
	c.Observe(2*sim.Millisecond, rd)
	c.Observe(3*sim.Millisecond, rd)
	c.Observe(4*sim.Millisecond, rd)
	// Tenant 1 departs mid-window: its three reads must vanish from the
	// window that is still being collected.
	c.DetachTenant(1)
	c.Tick(15 * sim.Millisecond)
	if got := c.SwitchCount(); got != 1 {
		t.Fatalf("switches after first boundary = %d, want 1", got)
	}
	v := c.Switches()[0].Vector
	if v.Prop[1] != 0 {
		t.Errorf("detached tenant kept proportion %v", v.Prop[1])
	}
	if v.Prop[0] != 1 {
		t.Errorf("surviving tenant proportion %v, want 1 (sole remaining traffic)", v.Prop[0])
	}

	// The tenant re-attaches (handoff landed): only post-attach arrivals
	// count, so one read makes it read-dominated with a fresh proportion.
	c.AttachTenant(1)
	c.Observe(16*sim.Millisecond, rd)
	c.Observe(17*sim.Millisecond, wr)
	c.Tick(25 * sim.Millisecond)
	if got := c.SwitchCount(); got != 2 {
		t.Fatalf("switches after second boundary = %d, want 2", got)
	}
	v = c.Switches()[1].Vector
	if v.Prop[1] != 0.5 || v.Prop[0] != 0.5 {
		t.Errorf("reattached window proportions %v, want 0.5/0.5 from fresh arrivals only", v.Prop)
	}
	if !v.ReadChar[1] {
		t.Errorf("reattached tenant not read-dominated from its single fresh read: %v", v.ReadChar)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerSkipIdleSingleShot: an idle single-shot controller keeps
// sliding its window until traffic appears, then adapts exactly once.
func TestControllerSkipIdleSingleShot(t *testing.T) {
	cfg := testConfig() // Window 100ms, AdaptEvery 0
	k, err := New(cfg, forcedModel(t, len(cfg.Strategies), 2))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := simrun.NewRunner().NewSession(simrun.Config{Device: cfg.Device, Options: cfg.Options})
	if err != nil {
		t.Fatal(err)
	}
	c := k.Controller(sess.Device())
	c.SkipIdle = true

	c.Tick(10 * cfg.Window) // ten empty windows: nothing fires
	if got := c.SwitchCount(); got != 0 {
		t.Fatalf("idle single shot switched %d times", got)
	}
	rec := trace.Record{Tenant: 1, Op: trace.Read, Offset: 0, Size: 4096}
	c.Observe(10*cfg.Window+sim.Millisecond, rec)
	c.Tick(12 * cfg.Window)
	if got := c.SwitchCount(); got != 1 {
		t.Fatalf("single shot after traffic switched %d times, want 1", got)
	}
	if last, _ := c.LastSwitch(); last.At != 11*cfg.Window {
		t.Errorf("switch at %v, want %v", last.At, 11*cfg.Window)
	}
	c.Tick(20 * cfg.Window)
	if got := c.SwitchCount(); got != 1 {
		t.Errorf("single shot fired again: %d switches", got)
	}
}

// TestControllerLiveHistoryBounded: a live (SkipIdle) controller adapts every
// epoch for as long as the process runs, so it keeps the switch count and the
// last switch, never the list — the count stays exact and what it retains
// does not grow with the epochs served.
func TestControllerLiveHistoryBounded(t *testing.T) {
	cfg := testConfig()
	cfg.Window = sim.Millisecond
	cfg.AdaptEvery = sim.Millisecond
	k, err := New(cfg, forcedModel(t, len(cfg.Strategies), 1))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := simrun.NewRunner().NewSession(simrun.Config{Device: cfg.Device, Options: cfg.Options})
	if err != nil {
		t.Fatal(err)
	}
	c := k.Controller(sess.Device())
	c.SkipIdle = true

	const epochs = 10000
	rec := trace.Record{Tenant: 0, Op: trace.Write, Offset: 0, Size: 4096}
	for i := 0; i < epochs; i++ {
		// One arrival per window, then the boundary that closes it.
		c.Observe(sim.Time(i)*sim.Millisecond+sim.Microsecond, rec)
		c.Tick(sim.Time(i+1) * sim.Millisecond)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if got := c.SwitchCount(); got != epochs {
		t.Fatalf("SwitchCount = %d after %d live epochs", got, epochs)
	}
	last, ok := c.LastSwitch()
	if !ok || last.At != epochs*sim.Millisecond || last.Index != 1 {
		t.Errorf("LastSwitch = %+v, %v; want the epoch at %v deciding class 1", last, ok, epochs*sim.Millisecond)
	}
	if n, capacity := len(c.switches), cap(c.switches); n != 0 || capacity != 0 {
		t.Errorf("live controller retains a %d-entry history (cap %d), want none", n, capacity)
	}
	if sw := c.Switches(); len(sw) != 0 {
		t.Errorf("live controller Switches() returned %d entries, want none", len(sw))
	}
}

// A warm adaptation epoch allocates nothing: the controller keeps its traits
// and binding as scratch, the binding's sets are ranges of its own arena,
// and the FTL copies them into each tenant's existing storage.
func TestControllerAdaptAllocatesNothing(t *testing.T) {
	cfg := testConfig()
	cfg.Hybrid = true
	for _, class := range []int{0, 1, len(cfg.Strategies) - 1} {
		k, err := New(cfg, forcedModel(t, len(cfg.Strategies), class))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := simrun.NewRunner().NewSession(simrun.Config{Device: cfg.Device, Options: cfg.Options})
		if err != nil {
			t.Fatal(err)
		}
		c := k.Controller(sess.Device())
		c.SkipIdle = true
		for tenant := 0; tenant < features.MaxTenants; tenant++ {
			c.Observe(sim.Microsecond, trace.Record{Tenant: tenant, Op: trace.Op(tenant % 2), Size: 4096})
		}
		now := cfg.Window
		if err := c.adapt(now); err != nil { // warm: policy instance, scratch, FTL storage
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			now += cfg.Window
			if err := c.adapt(now); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("class %d (%v): a warm adapt allocates %v times, want 0", class, cfg.Strategies[class], allocs)
		}
	}
}

// Due names the next boundary that would act: always in trace mode, in live
// mode only once the window holds an arrival, and never after a single-shot
// controller has adapted.
func TestControllerDue(t *testing.T) {
	cfg := testConfig()
	cfg.Window = 10 * sim.Millisecond
	k, err := New(cfg, forcedModel(t, len(cfg.Strategies), 1))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := simrun.NewRunner().NewSession(simrun.Config{Device: cfg.Device, Options: cfg.Options})
	if err != nil {
		t.Fatal(err)
	}
	if at, ok := k.Controller(sess.Device()).Due(); !ok || at != cfg.Window {
		t.Errorf("trace controller Due = %v %v, want %v true", at, ok, cfg.Window)
	}
	c := k.Controller(sess.Device())
	c.SkipIdle = true
	if at, ok := c.Due(); ok {
		t.Errorf("idle live controller Due = %v true, want none", at)
	}
	c.Tick(25 * sim.Millisecond) // idle boundaries slide the window
	c.Observe(26*sim.Millisecond, trace.Record{Tenant: 0, Op: trace.Write, Size: 4096})
	if at, ok := c.Due(); !ok || at != 30*sim.Millisecond {
		t.Errorf("live controller with an arrival Due = %v %v, want 30ms true", at, ok)
	}
	c.Tick(30 * sim.Millisecond)
	if c.SwitchCount() != 1 {
		t.Fatalf("%d switches at the due boundary, want 1", c.SwitchCount())
	}
	if at, ok := c.Due(); ok {
		t.Errorf("single-shot controller after adapting Due = %v true, want none", at)
	}
}
