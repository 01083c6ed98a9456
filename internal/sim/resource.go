package sim

import "fmt"

// Resource models a unit of hardware that can serve one operation at a time,
// such as a flash channel bus or a die. Operations request the resource with
// Use; when the resource is free the operation occupies it for a fixed
// duration, after which the completion callback runs and the next waiter is
// granted.
//
// Waiters are ordered by (priority, arrival): lower priority values are
// served first, ties in FIFO order. This is how the device model implements
// the paper's read-priority channel arbitration — reads enqueue with a lower
// priority value than writes.
//
// Only numPrio priority levels exist and arrival order within a level is
// queue order, so the wait queue is one FIFO ring per level: enqueue is an
// append, dequeue takes the head of the first non-empty ring, and nothing is
// ever compared or sifted. Release events go through the engine's typed
// AfterCall fast path with a completion function created once per resource —
// granting and releasing allocate nothing per operation.
type Resource struct {
	eng  *Engine
	name string

	probe Probe
	// probeNop caches whether probe is the no-op default, so an
	// uninstrumented grant or enqueue skips the interface call (as
	// Engine.probeNop does for Step).
	probeNop bool
	kind     ResourceKind
	index    int

	busy   bool
	cur    Completion // what to run when the current hold ends; may be nil
	fin    func(uint64)
	queues [numPrio]ring[waiter] // waiters by priority, each in arrival order
	nwait  int                   // waiters across all queues
	// queuedHold is the sum of the queued waiters' hold times, kept on
	// enqueue and dequeue so Load — which dynamic page allocation calls
	// for every channel and die of a tenant's set on every write — does
	// not walk the queues.
	queuedHold Time

	// Telemetry, exposed for dynamic page allocation and statistics.
	busyUntil Time
	busyTime  Time
	grants    uint64
	contended uint64 // grants that had to wait for a previous holder
	waitTime  Time   // total time spent waiting across all grants
	maxQueue  int
}

// numPrio is the number of priority levels a Resource arbitrates between:
// the device model's read, write and background (GC) classes. Valid
// priorities are 0 <= prio < numPrio.
const numPrio = 3

// Completion is the typed completion callback for UseCompletion: a pooled
// operation record implements it once and is re-armed across stages, so
// multi-stage flash operations (die sense then bus transfer, and the
// converse for writes) schedule no per-stage closures.
type Completion interface {
	// OnComplete runs when the resource hold ends, before the next waiter
	// is granted.
	OnComplete()
}

// funcCompletion adapts a plain func() to Completion. A func value is
// pointer-shaped, so the interface conversion does not allocate.
type funcCompletion func()

// OnComplete implements Completion.
func (f funcCompletion) OnComplete() { f() }

// waiter is one request for the resource, from Use to its grant.
type waiter struct {
	at   Time // enqueue time, for wait accounting
	hold Time
	done Completion
}

// NewResource creates a resource bound to an engine. The name appears only in
// diagnostics.
func NewResource(eng *Engine, name string) *Resource {
	r := &Resource{eng: eng, name: name, probe: NopProbe{}, probeNop: true}
	// One completion closure for the resource's lifetime; every release
	// event reuses it through the typed schedule path.
	r.fin = r.finish
	return r
}

// Reset returns the resource to its just-constructed state — idle, empty
// queue, zeroed telemetry — keeping the wait rings' capacity. The owning
// engine must have been Reset as well (so no release event for a previous
// hold is still pending).
func (r *Resource) Reset() {
	r.busy = false
	r.cur = nil
	for i := range r.queues {
		r.queues[i].reset()
	}
	r.nwait = 0
	r.queuedHold = 0
	r.busyUntil = 0
	r.busyTime = 0
	r.grants = 0
	r.contended = 0
	r.waitTime = 0
	r.maxQueue = 0
}

// Instrument attaches a probe that observes queueing and grants on this
// resource, identified to the probe as (kind, index). A nil probe restores
// the no-op default.
func (r *Resource) Instrument(p Probe, kind ResourceKind, index int) {
	r.probe = orNop(p)
	_, r.probeNop = r.probe.(NopProbe)
	r.kind = kind
	r.index = index
}

// Name returns the diagnostic name given at construction.
func (r *Resource) Name() string { return r.name }

// Use requests the resource with the given priority (lower is served first),
// occupies it for hold once granted, and then invokes done (which may be
// nil). If the resource is idle and nothing with better priority is queued,
// the grant happens immediately at the current simulated time.
func (r *Resource) Use(prio int, hold Time, done func()) {
	var c Completion
	if done != nil {
		c = funcCompletion(done)
	}
	r.UseCompletion(prio, hold, c)
}

// UseCompletion is Use with a typed completion callback; c may be nil. It is
// the allocation-free path for callers that pool their operation records. A
// priority outside [0, numPrio) panics: like a schedule in the past, it can
// only be a modelling bug.
func (r *Resource) UseCompletion(prio int, hold Time, c Completion) {
	if uint(prio) >= numPrio {
		panic(fmt.Sprintf("sim: resource %s: priority %d outside [0, %d)", r.name, prio, numPrio))
	}
	w := waiter{at: r.eng.Now(), hold: hold, done: c}
	if !r.busy {
		r.grant(w)
		return
	}
	*r.queues[prio].alloc() = w
	r.nwait++
	r.queuedHold += hold
	if r.nwait > r.maxQueue {
		r.maxQueue = r.nwait
	}
	if !r.probeNop {
		r.probe.ResourceQueued(r.kind, r.index, r.nwait)
	}
}

// grant occupies the resource for w and schedules the release.
func (r *Resource) grant(w waiter) {
	now := r.eng.Now()
	r.busy = true
	r.grants++
	wait := now - w.at
	if wait > 0 {
		r.contended++
		r.waitTime += wait
	}
	if !r.probeNop {
		r.probe.ResourceGranted(r.kind, r.index, w.hold, wait)
	}
	r.busyTime += w.hold
	r.busyUntil = now + w.hold
	r.cur = w.done
	r.eng.AfterCall(w.hold, r.fin, 0)
}

// finish ends the current hold: it runs the holder's completion and then
// releases the resource. It is the single release callback every scheduled
// hold shares (the holder is unique until release, so its state lives in
// r.cur rather than a per-event closure).
func (r *Resource) finish(uint64) {
	done := r.cur
	r.cur = nil // release the completion reference
	if done != nil {
		done.OnComplete()
	}
	r.release()
}

// release frees the resource and grants the best waiter, if any: the oldest
// of the best non-empty priority level.
func (r *Resource) release() {
	r.busy = false
	if r.nwait == 0 {
		return
	}
	for p := range r.queues {
		if q := &r.queues[p]; q.n > 0 {
			w := *q.at(0)
			q.drop()
			r.nwait--
			r.queuedHold -= w.hold
			r.grant(w)
			return
		}
	}
}

// Busy reports whether the resource is currently held.
func (r *Resource) Busy() bool { return r.busy }

// QueueLen returns the number of operations waiting (not counting the
// current holder).
func (r *Resource) QueueLen() int { return r.nwait }

// BusyUntil returns the time at which the current hold ends; if the resource
// is idle the value is in the past and callers should clamp to now.
func (r *Resource) BusyUntil() Time { return r.busyUntil }

// Load returns an estimate of pending work used by dynamic page allocation:
// the remaining hold time of the current operation plus queued hold times.
func (r *Resource) Load(now Time) Time {
	var load Time
	if r.busy && r.busyUntil > now {
		load = r.busyUntil - now
	}
	return load + r.queuedHold
}

// Stats is a snapshot of resource utilization counters.
type Stats struct {
	Name      string
	BusyTime  Time   // total occupied time
	Grants    uint64 // operations served
	Contended uint64 // operations that had to wait
	WaitTime  Time   // total waiting time across operations
	MaxQueue  int    // peak queue length observed
}

// Snapshot returns the current utilization counters.
func (r *Resource) Snapshot() Stats {
	return Stats{
		Name:      r.name,
		BusyTime:  r.busyTime,
		Grants:    r.grants,
		Contended: r.contended,
		WaitTime:  r.waitTime,
		MaxQueue:  r.maxQueue,
	}
}
