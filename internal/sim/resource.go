package sim

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
// The wait queue is an inlined 4-ary min-heap over []waiter (no
// container/heap interface boxing), and release events go through the
// engine's typed ScheduleCall fast path with a completion function created
// once per resource — granting and releasing allocate nothing per
// operation.
type Resource struct {
	eng  *Engine
	name string

	probe Probe
	kind  ResourceKind
	index int

	busy    bool
	cur     waiter // the waiter currently holding the resource
	fin     func(uint64)
	waiters []waiter // inlined min-heap ordered by (prio, seq)
	seq     uint64
	// queuedHold is the sum of the queued waiters' hold times, kept by
	// pushWaiter/popWaiter so Load — which dynamic page allocation calls
	// for every channel and die of a tenant's set on every write — does
	// not walk the queue.
	queuedHold Time

	// Telemetry, exposed for dynamic page allocation and statistics.
	busyUntil Time
	busyTime  Time
	grants    uint64
	contended uint64 // grants that had to wait for a previous holder
	waitTime  Time   // total time spent waiting across all grants
	maxQueue  int
}

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

// waiter is one queued request for the resource.
type waiter struct {
	prio int
	seq  uint64
	at   Time // enqueue time, for wait accounting
	hold Time
	done Completion
}

// wbefore orders waiters by (prio, seq): better priority first, FIFO among
// equals. Sequence numbers are unique per resource, so the order is total
// and independent of heap arity.
func (w *waiter) wbefore(o *waiter) bool {
	if w.prio != o.prio {
		return w.prio < o.prio
	}
	return w.seq < o.seq
}

// NewResource creates a resource bound to an engine. The name appears only in
// diagnostics.
func NewResource(eng *Engine, name string) *Resource {
	r := &Resource{eng: eng, name: name, probe: NopProbe{}}
	// One completion closure for the resource's lifetime; every release
	// event reuses it through the typed schedule path.
	r.fin = r.finish
	return r
}

// Reset returns the resource to its just-constructed state — idle, empty
// queue, zeroed telemetry and sequence counter — keeping the wait heap's
// capacity. The owning engine must have been Reset as well (so no release
// event for a previous hold is still pending).
func (r *Resource) Reset() {
	r.busy = false
	r.cur = waiter{}
	for i := range r.waiters {
		r.waiters[i] = waiter{}
	}
	r.waiters = r.waiters[:0]
	r.queuedHold = 0
	r.seq = 0
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
// the allocation-free path for callers that pool their operation records.
func (r *Resource) UseCompletion(prio int, hold Time, c Completion) {
	r.seq++
	w := waiter{prio: prio, seq: r.seq, at: r.eng.Now(), hold: hold, done: c}
	if !r.busy {
		r.grant(w)
		return
	}
	r.pushWaiter(w)
	if len(r.waiters) > r.maxQueue {
		r.maxQueue = len(r.waiters)
	}
	r.probe.ResourceQueued(r.kind, r.index, len(r.waiters))
}

// pushWaiter inserts w into the wait heap, sifting up by (prio, seq).
func (r *Resource) pushWaiter(w waiter) {
	h := append(r.waiters, w)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !w.wbefore(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = w
	r.waiters = h
	r.queuedHold += w.hold
}

// popWaiter removes and returns the best waiter, zeroing the vacated slot so
// its completion callback is released.
func (r *Resource) popWaiter() waiter {
	h := r.waiters
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = waiter{}
	h = h[:n]
	r.waiters = h
	r.queuedHold -= root.hold
	if n > 0 {
		i := 0
		for {
			c := heapArity*i + 1
			if c >= n {
				break
			}
			m := c
			end := c + heapArity
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if h[j].wbefore(&h[m]) {
					m = j
				}
			}
			if !h[m].wbefore(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return root
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
	r.probe.ResourceGranted(r.kind, r.index, w.hold, wait)
	r.busyTime += w.hold
	r.busyUntil = now + w.hold
	r.cur = w
	r.eng.ScheduleCall(now+w.hold, r.fin, 0)
}

// finish ends the current hold: it runs the holder's completion and then
// releases the resource. It is the single release callback every scheduled
// hold shares (the holder is unique until release, so its state lives in
// r.cur rather than a per-event closure).
func (r *Resource) finish(uint64) {
	w := r.cur
	r.cur = waiter{} // release the completion reference
	if w.done != nil {
		w.done.OnComplete()
	}
	r.release()
}

// release frees the resource and grants the best waiter, if any.
func (r *Resource) release() {
	r.busy = false
	if len(r.waiters) > 0 {
		r.grant(r.popWaiter())
	}
}

// Busy reports whether the resource is currently held.
func (r *Resource) Busy() bool { return r.busy }

// QueueLen returns the number of operations waiting (not counting the
// current holder).
func (r *Resource) QueueLen() int { return len(r.waiters) }

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
