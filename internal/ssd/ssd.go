// Package ssd models a multi-channel SSD: per-channel buses, per-die flash
// arrays, read-priority arbitration, page-level request fan-out, and the
// access-conflict behaviour the paper optimizes. It drives the discrete-
// event engine with a block-level trace and produces per-tenant latency
// statistics.
//
// Timing model (per page):
//
//	read:  die busy tR  -> channel bus busy tXfer
//	write: channel bus busy tXfer -> die busy tPROG
//	GC:    die busy moved*(tR+tPROG) + tBERS (copyback, no bus traffic)
//
// A request completes when its last page completes; its response latency is
// completion time minus arrival time. Access conflicts are the waits
// operations experience on busy buses and dies; the resource snapshots
// report them directly.
package ssd

import (
	"context"
	"fmt"

	"ssdkeeper/internal/ftl"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/stats"
	"ssdkeeper/internal/trace"
)

// Operation priorities on shared resources: reads preempt queued writes
// (they do not abort in-flight ones), and GC runs at background priority.
const (
	prioRead  = 0
	prioWrite = 1
	prioGC    = 2
)

// Options tune device behaviour.
type Options struct {
	// ReadPriority makes buses and dies serve queued reads before queued
	// writes. SSDSim — and therefore the paper's evaluation — arbitrates
	// FIFO (the paper's "reads have priority to respond" refers to their
	// shorter service time, not a scheduler), so the default is false.
	// The read-priority ablation (results/ablations.txt) flips it: on its
	// write-heavy mix, Shared gets 5 % faster and the best split's lead
	// over Shared narrows from 18.7 % to 15.0 %, but does not vanish.
	ReadPriority bool
	// FaultPlan schedules deterministic health events — die failures,
	// block retirements, read-retry tails, wear-dependent program
	// slowdown — onto the device's engine. nil (the default) keeps the
	// device immortal and the data path byte-identical to a build without
	// fault support. A pointer keeps Options comparable, which the run
	// loops' device cache relies on: the same plan pointer means the same
	// session behaviour, and Reset re-arms the plan from scratch.
	FaultPlan *nand.FaultPlan
}

// DefaultOptions returns the paper's configuration: FIFO arbitration.
func DefaultOptions() Options { return Options{ReadPriority: false} }

// Device is one simulated SSD.
type Device struct {
	cfg   nand.Config
	opts  Options
	eng   *sim.Engine
	ftl   *ftl.FTL
	probe sim.Probe

	buses []*sim.Resource // one per channel
	dies  []*sim.Resource // flat die index

	health *nand.Health // nil unless Options.FaultPlan is set

	col *stats.Collector

	// Free lists for the per-request and per-page operation records the
	// replay hot path fans out into. The engine is single-goroutine, so
	// plain slices beat sync.Pool here (no atomics, no per-P caches).
	reqFree []*request
	opFree  []*pageOp
}

// New builds a device (and its FTL) over a geometry, on a fresh engine with
// no instrumentation. Production call sites construct devices through
// internal/simrun, which reuses engines and attaches probes via NewOn; New
// remains for layer-internal tests.
func New(cfg nand.Config, opts Options) (*Device, error) {
	return NewOn(nil, nil, cfg, opts)
}

// NewOn builds a device (and its FTL) over a geometry on the given engine,
// with every layer — engine, channel buses, dies, FTL — instrumented with
// probe. A nil engine means a fresh one; a nil probe means no-op
// instrumentation. The engine must be at time zero with no pending events
// (freshly created or Reset).
func NewOn(eng *sim.Engine, probe sim.Probe, cfg nand.Config, opts Options) (*Device, error) {
	return NewOnCollector(eng, probe, nil, cfg, opts)
}

// NewOnCollector is NewOn with a caller-owned latency collector, so run
// loops (internal/simrun) can reuse one collector's accumulators across
// many sessions. The collector must be fresh or Reset; nil means a private
// one.
func NewOnCollector(eng *sim.Engine, probe sim.Probe, col *stats.Collector, cfg nand.Config, opts Options) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if eng == nil {
		eng = sim.NewEngine()
	}
	if col == nil {
		col = stats.NewCollector()
	}
	eng.SetProbe(probe)
	d := &Device{
		cfg:  cfg,
		opts: opts,
		eng:  eng,
		col:  col,
	}
	d.probe = probe
	if d.probe == nil {
		d.probe = sim.NopProbe{}
	}
	f, err := ftl.New(cfg, d)
	if err != nil {
		return nil, err
	}
	f.SetProbe(probe)
	d.ftl = f
	d.buses = make([]*sim.Resource, cfg.Channels)
	for i := range d.buses {
		d.buses[i] = sim.NewResource(eng, fmt.Sprintf("ch%d", i))
		d.buses[i].Instrument(probe, sim.KindBus, i)
	}
	d.dies = make([]*sim.Resource, cfg.TotalDies())
	for i := range d.dies {
		d.dies[i] = sim.NewResource(eng, fmt.Sprintf("die%d", i))
		d.dies[i].Instrument(probe, sim.KindDie, i)
	}
	if opts.FaultPlan != nil {
		if err := opts.FaultPlan.Validate(cfg); err != nil {
			return nil, err
		}
		d.health = nand.NewHealth(cfg, opts.FaultPlan)
		d.ftl.SetHealth(d.health)
		d.armFaults()
	}
	return d, nil
}

// armFaults schedules every fault-plan event onto the engine. Called at
// construction and again from Reset and Rewind — all run against an engine
// at time zero with the plan not yet fired, so a reused device replays its
// faults bit-identically.
func (d *Device) armFaults() {
	for _, ev := range d.opts.FaultPlan.Events {
		ev := ev
		d.eng.Schedule(ev.At, func() { d.applyFault(ev) })
	}
}

// applyFault executes one health event at its scheduled instant.
func (d *Device) applyFault(ev nand.FaultEvent) {
	switch ev.Kind {
	case nand.FaultDieFail:
		die := ev.Channel*d.cfg.DiesPerChannel() + ev.Die
		_, perDie := d.ftl.FailDie(die)
		// The rebuild storm occupies the destination dies at background
		// priority, so foreground traffic queues behind it — the latency
		// spike the trajectory experiment measures.
		for i, t := range perDie {
			if t > 0 {
				d.dies[i].Use(prioGC, t, nil)
			}
		}
	case nand.FaultRetireBlock:
		dpc, ppd := d.cfg.DiesPerChannel(), d.cfg.PlanesPerDie
		for dd := 0; dd < dpc; dd++ {
			die := ev.Channel*dpc + dd
			if d.health.DieDead(die) {
				continue
			}
			for pl := 0; pl < ppd; pl++ {
				if _, t := d.ftl.RetireBlock(die*ppd+pl, ev.Block); t > 0 {
					d.dies[die].Use(prioGC, t, nil)
				}
			}
		}
	case nand.FaultRetryTail:
		d.health.SetRetryProb(ev.Prob)
	case nand.FaultProgramSlowdown:
		d.health.SetSlowFactor(ev.Factor)
	}
}

// Reset returns the device to its just-constructed state so a run loop can
// reuse it for the next session instead of rebuilding: the FTL is factory-
// reset (keeping its materialized block storage), every bus and die resource
// is idled and its telemetry zeroed. The engine and collector are owned by
// the caller (internal/simrun) and must be Reset separately; geometry,
// options, and probes are unchanged.
func (d *Device) Reset() {
	d.ftl.Reset()
	d.idle()
}

// Checkpoint records the device's state — one that has served no traffic,
// normally just reset and seasoned — for Rewind (ftl.FTL.Checkpoint).
func (d *Device) Checkpoint() error { return d.ftl.Checkpoint() }

// Rewind returns a checkpointed device to its checkpoint: the FTL writes
// back only the blocks the last run dirtied, and the resources and fault
// plan are restored as Reset restores them. As with Reset, the caller resets
// the engine and collector.
func (d *Device) Rewind() {
	d.ftl.Rewind()
	d.idle()
}

// idle idles every bus and die, and restores factory health with the fault
// plan re-armed on the (caller-reset) engine so the next session replays it
// identically.
func (d *Device) idle() {
	for _, b := range d.buses {
		b.Reset()
	}
	for _, dr := range d.dies {
		dr.Reset()
	}
	if d.health != nil {
		d.health.Reset()
		d.armFaults()
	}
}

// Config returns the device geometry.
func (d *Device) Config() nand.Config { return d.cfg }

// FTL exposes the device's translation layer (for channel re-allocation and
// page-mode changes while a simulation runs).
func (d *Device) FTL() *ftl.FTL { return d.ftl }

// Engine exposes the simulation engine (for schedulers layered on top, such
// as SSDKeeper's feature-window timer).
func (d *Device) Engine() *sim.Engine { return d.eng }

// Stats returns the latency collector.
func (d *Device) Stats() *stats.Collector { return d.col }

// Health returns the device's health state, nil on an immortal device
// (no Options.FaultPlan).
func (d *Device) Health() *nand.Health { return d.health }

// HealthSnapshot summarizes device health for feature extraction and the
// serve tier's health score. The zero value means a perfectly healthy
// device.
type HealthSnapshot struct {
	DeadDieFrac   float64 // fraction of dies dead (0 = all live)
	ReadRetries   int64   // reads that needed extra sensing passes
	SlowPrograms  int64   // programs stretched by wear slowdown
	DieFailures   int64
	BlocksRetired int64
	WearSpread    float64 // (max-min erase count) / max(1, WearThreshold)
}

// HealthSnapshot assembles the current health summary. On an immortal
// device it returns the zero value without touching the FTL.
func (d *Device) HealthSnapshot() HealthSnapshot {
	if d.health == nil {
		return HealthSnapshot{}
	}
	w := d.ftl.Wear()
	worn := d.cfg.WearThreshold
	if worn <= 0 {
		worn = 1
	}
	return HealthSnapshot{
		DeadDieFrac:   1 - d.health.LiveDieFrac(),
		ReadRetries:   d.health.ReadRetries,
		SlowPrograms:  d.health.SlowPrograms,
		DieFailures:   d.health.DieFailures,
		BlocksRetired: d.health.BlocksRetired,
		WearSpread:    float64(w.MaxErases-w.MinErases) / float64(worn),
	}
}

// ChannelLoad implements ftl.Load.
func (d *Device) ChannelLoad(ch int) sim.Time {
	return d.buses[ch].Load(d.eng.Now())
}

// DieLoad implements ftl.Load.
func (d *Device) DieLoad(die int) sim.Time {
	return d.dies[die].Load(d.eng.Now())
}

// prio maps an operation to its arbitration priority under the device
// options.
func (d *Device) prio(op trace.Op) int {
	if !d.opts.ReadPriority {
		return prioWrite
	}
	if op == trace.Read {
		return prioRead
	}
	return prioWrite
}

// pagesOf converts a record's byte extent to page numbers.
func (d *Device) pagesOf(r trace.Record) (startLPN int64, n int) {
	ps := int64(d.cfg.PageSize)
	startLPN = r.Offset / ps
	end := r.Offset + int64(r.Size)
	endLPN := (end + ps - 1) / ps
	return startLPN, int(endLPN - startLPN)
}

// request tracks one in-flight host request: its page fan-out counter and
// the data needed to record the response latency when the last page lands.
// Requests are pooled on the device; what used to be a per-request
// finishPage closure is now a record from the free list.
type request struct {
	d         *Device
	remaining int
	arrival   sim.Time
	tenant    int
	read      bool
	failed    bool // a later page could not be mapped: retire, report nothing
	done      Completer
}

// pageDone retires one page of the request, completing it when the fan-out
// drains. A request SubmitAt failed part-way has no latency to report: its
// issued pages only return the record.
func (rq *request) pageDone() {
	rq.remaining--
	if rq.remaining > 0 {
		return
	}
	d := rq.d
	if rq.failed {
		d.freeRequest(rq)
		return
	}
	lat := d.eng.Now() - rq.arrival
	if rq.read {
		d.col.AddRead(rq.tenant, lat)
	} else {
		d.col.AddWrite(rq.tenant, lat)
	}
	done := rq.done
	d.freeRequest(rq)
	if done != nil {
		done.Done(lat)
	}
}

// failRequest settles a request whose page `issued` could not be mapped, so
// the error does not leak the pooled record. With nothing issued it is
// returned at once; otherwise the pages already on the device retire the
// record when the last of them lands.
func (d *Device) failRequest(rq *request, issued int) {
	if issued == 0 {
		d.freeRequest(rq)
		return
	}
	rq.remaining = issued
	rq.failed = true
}

// pageOp is one page operation's two-stage resource walk: reads hold the
// die then the bus, writes the bus then the die. One pooled record per page
// replaces the two closures the stages used to allocate; it implements
// sim.Completion and re-arms itself for the second stage.
type pageOp struct {
	rq     *request
	bus    *sim.Resource
	die    *sim.Resource
	prio   int
	second sim.Time // hold time of the second resource
	write  bool
	final  bool
}

// OnComplete implements sim.Completion: stage one chains into the second
// resource; stage two retires the page and recycles the record.
func (op *pageOp) OnComplete() {
	if !op.final {
		op.final = true
		if op.write {
			op.die.UseCompletion(op.prio, op.second, op)
		} else {
			op.bus.UseCompletion(op.prio, op.second, op)
		}
		return
	}
	rq := op.rq
	rq.d.freePageOp(op)
	rq.pageDone()
}

func (d *Device) newRequest() *request {
	if n := len(d.reqFree); n > 0 {
		rq := d.reqFree[n-1]
		d.reqFree = d.reqFree[:n-1]
		return rq
	}
	return &request{d: d}
}

func (d *Device) freeRequest(rq *request) {
	rq.done = nil
	rq.failed = false
	d.reqFree = append(d.reqFree, rq)
}

func (d *Device) newPageOp() *pageOp {
	if n := len(d.opFree); n > 0 {
		op := d.opFree[n-1]
		d.opFree = d.opFree[:n-1]
		return op
	}
	return &pageOp{}
}

func (d *Device) freePageOp(op *pageOp) {
	*op = pageOp{}
	d.opFree = append(d.opFree, op)
}

// Completer receives a request's response latency when its last page lands.
// It is the device's only completion path: a caller that serves many
// requests implements Done on the record it already keeps per request (as
// pageOp does for sim.Completion), so submitting allocates nothing.
type Completer interface {
	Done(lat sim.Time)
}

// CompleterFunc adapts a plain function to Completer. Converting a nil
// function yields a non-nil Completer that panics when called; pass a nil
// Completer for "no completion".
type CompleterFunc func(lat sim.Time)

// Done implements Completer.
func (f CompleterFunc) Done(lat sim.Time) { f(lat) }

// Submit issues one request at the current simulated time. done (may be
// nil) receives the response latency at completion.
func (d *Device) Submit(r trace.Record, done Completer) error {
	return d.SubmitAt(r, d.eng.Now(), done)
}

// SubmitAt issues a request whose response latency is measured from the
// given arrival instant, which must not be in the future. Run submits each
// record at its trace timestamp.
func (d *Device) SubmitAt(r trace.Record, arrival sim.Time, done Completer) error {
	startLPN, n := d.pagesOf(r)
	if n == 0 {
		return fmt.Errorf("ssd: zero-page request at offset %d size %d", r.Offset, r.Size)
	}
	if arrival > d.eng.Now() {
		return fmt.Errorf("ssd: arrival %v in the future (now %v)", arrival, d.eng.Now())
	}
	rq := d.newRequest()
	rq.remaining = n
	rq.arrival = arrival
	rq.tenant = r.Tenant
	rq.read = r.Op == trace.Read
	rq.done = done
	for i := 0; i < n; i++ {
		k := ftl.Key{Tenant: r.Tenant, LPN: startLPN + int64(i)}
		if r.Op == trace.Read {
			addr, err := d.ftl.MapRead(k)
			if err != nil {
				d.failRequest(rq, i)
				return err
			}
			d.readPage(addr, rq)
		} else {
			addr, gc, err := d.ftl.MapWrite(k)
			if err != nil {
				d.failRequest(rq, i)
				return err
			}
			d.writePage(addr, rq)
			if gc != nil {
				d.chargeGC(gc)
			}
		}
	}
	return nil
}

// readPage models: die sensing, then bus transfer to the host. The plane's
// cache register (Figure 1) holds the page during the transfer, so the die
// is free once sensing ends.
func (d *Device) readPage(a nand.Addr, rq *request) {
	op := d.newPageOp()
	op.rq = rq
	op.die = d.dies[d.cfg.DieID(a)]
	op.bus = d.buses[a.Channel]
	op.prio = d.prio(trace.Read)
	op.second = d.cfg.XferLatency
	dieHold := d.cfg.ReadLatency
	if d.health != nil {
		if passes := d.health.RetriesFor(d.cfg.PlaneID(a), a.Block, a.Page); passes > 0 {
			dieHold += sim.Time(passes) * d.cfg.ReadLatency
			d.probe.ReadRetry(d.cfg.DieID(a), passes)
		}
	}
	op.die.UseCompletion(op.prio, dieHold, op)
}

// writePage models: bus transfer from the host into the plane's cache
// register, then the die program.
func (d *Device) writePage(a nand.Addr, rq *request) {
	op := d.newPageOp()
	op.rq = rq
	op.die = d.dies[d.cfg.DieID(a)]
	op.bus = d.buses[a.Channel]
	op.prio = d.prio(trace.Write)
	op.write = true
	op.second = d.cfg.WriteLatency
	if d.health != nil {
		if f := d.health.SlowFactor(); f > 1 {
			worn := d.cfg.WearThreshold
			if worn <= 0 {
				worn = 1
			}
			if d.ftl.BlockErases(d.cfg.PlaneID(a), a.Block) >= worn {
				extra := sim.Time(float64(d.cfg.WriteLatency) * (f - 1))
				op.second += extra
				d.health.SlowPrograms++
				d.probe.ProgramSlowdown(d.cfg.DieID(a), extra)
			}
		}
	}
	op.bus.UseCompletion(op.prio, d.cfg.XferLatency, op)
}

// chargeGC occupies the victim plane's die at background priority for the
// plan's copyback and erase time.
func (d *Device) chargeGC(plan *ftl.GCPlan) {
	die := d.dies[d.cfg.DieID(plan.VictimAddr)]
	die.Use(prioGC, plan.DieTime, nil)
}

// Result summarizes one completed simulation.
type Result struct {
	Makespan     sim.Time // time the last event fired
	Requests     int
	Device       stats.Latency
	PerTenant    map[int]stats.Latency
	BusStats     []sim.Stats
	DieStats     []sim.Stats
	FTL          ftl.Counters
	Conflicts    uint64   // operations that waited on a busy bus or die
	ConflictWait sim.Time // total time spent waiting
	// Fairness is Jain's index over the tenants' total latencies (1.0 =
	// every tenant experiences the device equally).
	Fairness float64
}

// Run replays an entire trace and returns the result. Arrivals are injected
// lazily (record i+1 is scheduled when record i arrives), so memory stays
// O(outstanding work), not O(trace). An optional onArrival hook observes
// each record at its arrival instant — SSDKeeper's features collector and
// window timer hang off it.
func (d *Device) Run(t trace.Trace, onArrival func(i int, r trace.Record)) (Result, error) {
	return d.RunContext(context.Background(), t, onArrival)
}

// RunContext is Run with cancellation: when ctx is cancelled the replay
// stops between events and the context's error is returned. A background
// context costs nothing on the event loop.
func (d *Device) RunContext(ctx context.Context, t trace.Trace, onArrival func(i int, r trace.Record)) (Result, error) {
	makespan, err := d.replay(ctx, t, nil, onArrival)
	if err != nil {
		return Result{}, err
	}
	return d.result(makespan, len(t)), nil
}

// RunTenants replays the trace as RunContext does but submits only the
// records of tenants whose entry in only is true, or every record when only
// is nil; every other record still arrives, as an event that submits
// nothing. Keeping every arrival keeps the firing order exact: at equal
// timestamps an arrival's order against device events is set by when the
// previous record of any tenant arrived, so a filtered trace would reorder
// ties. On a device whose submitted tenants own channels no other tenant
// uses, the latency is theirs in a whole run.
//
// It returns only the device-wide latency moments (stats.Latency.Moments),
// which is all a strategy's cost reads: no histogram is cloned and no
// per-tenant or per-resource summary is built, as a Result would.
func (d *Device) RunTenants(ctx context.Context, t trace.Trace, only []bool) (stats.Latency, error) {
	if _, err := d.replay(ctx, t, only, nil); err != nil {
		return stats.Latency{}, err
	}
	return d.col.Device().Moments(), nil
}

// replay validates the trace, injects its arrivals and runs the engine dry,
// returning the makespan. Each record arrives at its time, is shown to
// onArrival (may be nil) and is submitted when only is nil or marks its
// tenant. A submit failure wins over a cancellation.
func (d *Device) replay(ctx context.Context, t trace.Trace, only []bool, onArrival func(i int, r trace.Record)) (sim.Time, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	var submitErr error
	// inject is scheduled through the typed fast path: one closure for the
	// whole replay, with the record index as the event argument, instead of
	// one capturing closure per trace record. Record i+1 is scheduled when
	// record i arrives.
	var inject func(arg uint64)
	inject = func(arg uint64) {
		i := int(arg)
		if i >= len(t) || submitErr != nil {
			return
		}
		r := t[i]
		if onArrival != nil {
			onArrival(i, r)
		}
		if only == nil || uint(r.Tenant) < uint(len(only)) && only[r.Tenant] {
			if err := d.SubmitAt(r, r.Time, nil); err != nil {
				submitErr = err
				return
			}
		}
		if i+1 < len(t) {
			d.eng.ScheduleCall(t[i+1].Time, inject, arg+1)
		}
	}
	if len(t) > 0 {
		d.eng.ScheduleCall(t[0].Time, inject, 0)
	}
	makespan, ctxErr := d.eng.RunContext(ctx)
	if submitErr != nil {
		return 0, submitErr
	}
	return makespan, ctxErr
}

// Snapshot assembles a Result at the current simulated time, for drivers
// that pump the engine themselves (e.g. a serving node at drain).
func (d *Device) Snapshot(requests int) Result {
	return d.result(d.eng.Now(), requests)
}

// result assembles the summary. Latency accumulators are snapshotted
// (histograms cloned) so a Result stays valid after its collector is Reset
// for the next session on a reused runner.
func (d *Device) result(makespan sim.Time, requests int) Result {
	res := Result{
		Makespan:  makespan,
		Requests:  requests,
		Device:    d.col.Device().Snapshot(),
		PerTenant: make(map[int]stats.Latency),
		FTL:       d.ftl.Counters(),
		Fairness:  d.col.Fairness(),
	}
	for _, id := range d.col.Tenants() {
		res.PerTenant[id] = d.col.Tenant(id).Snapshot()
	}
	for _, b := range d.buses {
		s := b.Snapshot()
		res.BusStats = append(res.BusStats, s)
		res.Conflicts += s.Contended
		res.ConflictWait += s.WaitTime
	}
	for _, dr := range d.dies {
		s := dr.Snapshot()
		res.DieStats = append(res.DieStats, s)
		res.Conflicts += s.Contended
		res.ConflictWait += s.WaitTime
	}
	return res
}
