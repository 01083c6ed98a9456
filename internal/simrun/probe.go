package simrun

import (
	"fmt"

	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/stats"
)

// CounterProbe implements sim.Probe by aggregating observations into a
// stats.Counters registry:
//
//	sim.events               engine events fired
//	chN.busy_ns              bus occupancy per channel, simulated ns
//	chN.waits                operations that queued behind a busy bus
//	die.busy_ns              die occupancy, summed over dies
//	die.wait_ns              time spent queued on busy dies, summed
//	dieN(chC).queue_max      per-die queue depth high-water mark
//	ftl.gc.runs              garbage-collection invocations
//	ftl.gc.moved_pages       valid pages relocated by GC
//	ftl.gc.erases            blocks erased
//	ftl.gc.stall_ns          die time consumed by GC passes (erase stalls)
//	ftl.wl.moved_pages       pages migrated by static wear leveling
//	health.die_failures      dies killed by injected faults
//	health.rebuilt_pages     valid pages rebuilt off dead dies
//	health.blocks_retired    blocks retired by injected faults
//	health.retired_moved     valid pages relocated off retired blocks
//	health.read_retries      reads that needed extra sensing passes
//	health.retry_passes      extra sensing passes charged to dies
//	health.slow_programs     programs stretched by wear-dependent slowdown
//	health.slow_extra_ns     extra die time from program slowdown
//
// All counter handles are resolved at construction, so the per-event cost
// is an index and an add — no map lookups, no allocation.
type CounterProbe struct {
	set *stats.Counters

	events *stats.Counter

	busBusy  []*stats.Counter // per channel
	busWaits []*stats.Counter // per channel

	dieBusy     *stats.Counter
	dieWait     *stats.Counter
	dieQueueMax []*stats.Counter // per die

	gcRuns, gcMoved, gcErases, gcStall *stats.Counter
	wlMoved                            *stats.Counter

	dieFailures, rebuiltPages   *stats.Counter
	blocksRetired, retiredMoved *stats.Counter
	readRetries, retryPasses    *stats.Counter
	slowPrograms, slowExtra     *stats.Counter
}

var _ sim.Probe = (*CounterProbe)(nil)

// NewCounterProbe builds a probe sized for the given geometry. The counter
// registration order fixes the rendering order of the table.
func NewCounterProbe(cfg nand.Config) *CounterProbe {
	cs := stats.NewCounters()
	p := &CounterProbe{
		set:    cs,
		events: cs.Counter("sim.events"),
	}
	for ch := 0; ch < cfg.Channels; ch++ {
		p.busBusy = append(p.busBusy, cs.Counter(fmt.Sprintf("ch%d.busy_ns", ch)))
		p.busWaits = append(p.busWaits, cs.Counter(fmt.Sprintf("ch%d.waits", ch)))
	}
	p.dieBusy = cs.Counter("die.busy_ns")
	p.dieWait = cs.Counter("die.wait_ns")
	for die := 0; die < cfg.TotalDies(); die++ {
		name := fmt.Sprintf("die%d(ch%d).queue_max", die, cfg.ChannelOfDie(die))
		p.dieQueueMax = append(p.dieQueueMax, cs.Counter(name))
	}
	p.gcRuns = cs.Counter("ftl.gc.runs")
	p.gcMoved = cs.Counter("ftl.gc.moved_pages")
	p.gcErases = cs.Counter("ftl.gc.erases")
	p.gcStall = cs.Counter("ftl.gc.stall_ns")
	p.wlMoved = cs.Counter("ftl.wl.moved_pages")
	p.dieFailures = cs.Counter("health.die_failures")
	p.rebuiltPages = cs.Counter("health.rebuilt_pages")
	p.blocksRetired = cs.Counter("health.blocks_retired")
	p.retiredMoved = cs.Counter("health.retired_moved")
	p.readRetries = cs.Counter("health.read_retries")
	p.retryPasses = cs.Counter("health.retry_passes")
	p.slowPrograms = cs.Counter("health.slow_programs")
	p.slowExtra = cs.Counter("health.slow_extra_ns")
	return p
}

// Counters returns the underlying registry (Runner.Counters finds it here).
func (p *CounterProbe) Counters() *stats.Counters { return p.set }

// EventFired implements sim.Probe.
func (p *CounterProbe) EventFired(sim.Time) { p.events.Add(1) }

// ResourceQueued implements sim.Probe.
func (p *CounterProbe) ResourceQueued(kind sim.ResourceKind, index, queueLen int) {
	switch kind {
	case sim.KindBus:
		p.busWaits[index].Add(1)
	case sim.KindDie:
		p.dieQueueMax[index].Observe(int64(queueLen))
	}
}

// ResourceGranted implements sim.Probe.
func (p *CounterProbe) ResourceGranted(kind sim.ResourceKind, index int, hold, wait sim.Time) {
	switch kind {
	case sim.KindBus:
		p.busBusy[index].Add(int64(hold))
	case sim.KindDie:
		p.dieBusy.Add(int64(hold))
		p.dieWait.Add(int64(wait))
	}
}

// GC implements sim.Probe.
func (p *CounterProbe) GC(plane, moved, wearMoved, erases int, dieTime sim.Time) {
	p.gcRuns.Add(1)
	p.gcMoved.Add(int64(moved))
	p.gcErases.Add(int64(erases))
	p.gcStall.Add(int64(dieTime))
	p.wlMoved.Add(int64(wearMoved))
}

// DieFailed implements sim.Probe.
func (p *CounterProbe) DieFailed(die, rebuilt int) {
	p.dieFailures.Add(1)
	p.rebuiltPages.Add(int64(rebuilt))
}

// BlockRetired implements sim.Probe.
func (p *CounterProbe) BlockRetired(plane, moved int) {
	p.blocksRetired.Add(1)
	p.retiredMoved.Add(int64(moved))
}

// ReadRetry implements sim.Probe.
func (p *CounterProbe) ReadRetry(die, passes int) {
	p.readRetries.Add(1)
	p.retryPasses.Add(int64(passes))
}

// ProgramSlowdown implements sim.Probe.
func (p *CounterProbe) ProgramSlowdown(die int, extra sim.Time) {
	p.slowPrograms.Add(1)
	p.slowExtra.Add(int64(extra))
}
