package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/ftl"
	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
	"ssdkeeper/internal/workload"
)

// replaySpec is one offline workload: a four-tenant mix replayed on a
// seasoned device, either under static Shared allocation or under the keeper.
type replaySpec struct {
	writeRatios [tenants]float64
	requests    int
	iops        float64
	keeper      bool
}

func (s replaySpec) mix(seed int64) workload.MixSpec {
	m := workload.MixSpec{Requests: s.requests, IOPS: s.iops, Seed: seed}
	for _, wr := range s.writeRatios {
		m.Tenants = append(m.Tenants, workload.TenantSpec{WriteRatio: wr, Share: 1.0 / tenants})
	}
	return m
}

// fingerprint is the part of an ssd.Result that must repeat bit for bit when
// the same trace is replayed on the same device configuration.
type fingerprint struct {
	makespan         sim.Time
	requests         int
	reads, writes    uint64
	readSum, wrSum   sim.Time
	readMax, wrMax   sim.Time
	ftl              ftl.Counters
	conflicts        uint64
	conflictWait     sim.Time
	busBusy, dieBusy sim.Time
}

func fingerprintOf(r ssd.Result) fingerprint {
	f := fingerprint{
		makespan: r.Makespan, requests: r.Requests,
		reads: r.Device.Read.Count, writes: r.Device.Write.Count,
		readSum: r.Device.Read.Sum, wrSum: r.Device.Write.Sum,
		readMax: r.Device.Read.Max, wrMax: r.Device.Write.Max,
		ftl: r.FTL, conflicts: r.Conflicts, conflictWait: r.ConflictWait,
	}
	for _, s := range r.BusStats {
		f.busBusy += s.BusyTime
	}
	for _, s := range r.DieStats {
		f.dieBusy += s.BusyTime
	}
	return f
}

func sharedConfig(c *common, m workload.MixSpec) simrun.Config {
	return simrun.Config{
		Device: c.env.Device, Options: c.env.Options, Season: c.env.Season,
		Strategy: alloc.Strategy{Kind: alloc.Shared}, Traits: m.Traits(),
	}
}

// replayOnce runs one repetition on a fresh device: a new runner for the
// static replay, a new keeper (and with it a new private runner) for the
// managed one. With a span log it runs the same steps on an instrumented
// runner, driving the keeper's controller through the public arrival hook
// exactly as keeper.Keeper.Run does, so the probe counters and the time spent
// inside the controller can be read from outside.
//
// The last return value owns the repetition's device; the caller holds it
// while it reads the live heap.
func replayOnce(c *common, spec replaySpec, m workload.MixSpec, tr trace.Trace, tl *tracedReplay) (ssd.Result, []keeper.Switch, any, error) {
	ctx := context.Background()
	if tl == nil {
		if !spec.keeper {
			runner := simrun.NewRunner()
			res, err := runner.Run(ctx, sharedConfig(c, m), tr)
			return res.Result, nil, runner, err
		}
		k, err := keeper.NewWithProvider(c.keeper.Config(), c.keeper.Source().Active())
		if err != nil {
			return ssd.Result{}, nil, nil, err
		}
		rep, err := k.Run(tr)
		return rep.Result, rep.Switches, k, err
	}

	rep, endRep := tl.log.begin("replay.rep", 0)
	defer endRep()
	runner := simrun.NewInstrumentedRunner(c.env.Device)
	cfg := sharedConfig(c, m)
	if spec.keeper {
		cfg = simrun.Config{Device: c.env.Device, Options: c.env.Options, Season: c.env.Season}
	}
	_, endSess := tl.log.begin("simrun.session", rep)
	sess, err := runner.NewSession(cfg)
	endSess()
	if err != nil {
		return ssd.Result{}, nil, nil, err
	}
	var ctrl *keeper.Controller
	var onArrival func(int, trace.Record)
	if spec.keeper {
		dev := sess.Device()
		ctrl = c.keeper.Controller(dev)
		onArrival = func(_ int, r trace.Record) {
			epochs := ctrl.SwitchCount()
			t0 := time.Now()
			ctrl.Observe(dev.Engine().Now(), r)
			if d := time.Since(t0); ctrl.SwitchCount() != epochs {
				tl.epochNS += d.Nanoseconds()
			}
		}
	}
	_, endRun := tl.log.begin("simrun.run", rep)
	t0 := time.Now()
	res, err := sess.RunObserved(ctx, tr, onArrival)
	tl.runNS += time.Since(t0).Nanoseconds()
	endRun()
	if err != nil {
		return ssd.Result{}, nil, nil, err
	}
	tl.counters = map[string]int64{}
	for _, name := range res.Counters.Names() {
		tl.counters[name] = res.Counters.Get(name)
	}
	var switches []keeper.Switch
	if ctrl != nil {
		if err := ctrl.Err(); err != nil {
			return ssd.Result{}, nil, nil, err
		}
		switches = ctrl.Switches()
	}
	return res.Result, switches, runner, nil
}

// tracedReplay collects what only the traced pass can see.
type tracedReplay struct {
	log            *spanLog
	counters       map[string]int64 // CounterProbe registry of the last repetition
	runNS, epochNS int64            // time inside RunObserved, and inside Observe calls that fired an epoch
}

// replayResult is what the repetitions of one replay workload produced.
type replayResult struct {
	reps     int
	requests int
	result   ssd.Result
	switches []keeper.Switch
	laps     []*lap
	heap     uint64
}

// runReplay repeats the replay until budget is spent (at least twice, so the
// bit-identity check always has a pair) and checks every repetition against
// the first.
func runReplay(c *common, spec replaySpec, m workload.MixSpec, tr trace.Trace, budget time.Duration, tl *tracedReplay) (*replayResult, error) {
	out := &replayResult{requests: len(tr)}
	var first fingerprint
	var device any
	start := time.Now()
	for out.reps < 2 || time.Since(start)+time.Since(start)/time.Duration(out.reps) < budget {
		device = nil // a repetition starts with the previous device collectable
		runtime.GC()
		l := startLap()
		res, switches, dev, err := replayOnce(c, spec, m, tr, tl)
		l.stop()
		device = dev
		if err != nil {
			return nil, err
		}
		if res.Requests != len(tr) {
			return nil, fmt.Errorf("replay completed %d of %d records", res.Requests, len(tr))
		}
		fp := fingerprintOf(res)
		if out.reps == 0 {
			first = fp
		} else if fp != first {
			return nil, fmt.Errorf("replay repetition %d differs from the first:\n  %+v\n  %+v", out.reps, fp, first)
		}
		out.result, out.switches = res, switches
		out.laps = append(out.laps, l)
		out.reps++
	}
	out.heap = liveHeap()
	runtime.KeepAlive(tr)
	runtime.KeepAlive(device)
	return out, nil
}
