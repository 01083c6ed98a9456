// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a set of pending events that fire
// in (at, seq) order: by timestamp, and among equal timestamps in the order
// they were scheduled. That order is total and fixed by the schedule calls
// alone, which makes simulations fully deterministic and therefore
// reproducible across runs and platforms.
//
// Pending events live in queues that are sorted by construction wherever the
// model guarantees sortedness, so the common event costs an append and an
// advance instead of a heap sift:
//
//   - A small fixed set of FIFO ring lanes, each keyed by one delay.
//     AfterCall(d, ...) schedules at now+d, the clock never runs backwards
//     and seq only grows, so events of one delay are born in non-decreasing
//     (at, seq) — a lane is a sorted queue without ever comparing two of its
//     entries. Resource holds go this way: a device has three or four
//     distinct hold lengths (bus transfer, read, program) and hundreds of
//     thousands of holds of each. The first delays seen key the lanes, and a
//     key lasts until its delay has fallen out of use (rekeyAfter).
//   - One in-order lane for ScheduleCall events whose timestamps arrive in
//     non-decreasing order, which is how a sorted trace is injected.
//   - An inlined, index-addressed 4-ary min-heap over a plain []event for
//     everything else: closures scheduled with Schedule/After, delays no lane
//     is keyed by (a GC stall's length differs run to run), and any event a
//     lane refuses.
//
// A lane accepts an event only when its timestamp is not before the lane's
// tail, so each queue is individually sorted whatever the keying heuristic
// does; Step takes the (at, seq)-least of the lane heads and the heap root,
// which is the least pending event. The firing order is therefore exactly the
// one a single heap would produce — where an event is queued affects host
// time only. Sources reports how many events each kind of queue served.
//
// Popped and reset slots are zeroed, in lanes and heap alike, so the closures
// they captured become collectable immediately. See DESIGN.md "event-loop
// cost model" for the budget this buys.
package sim

import (
	"context"
	"fmt"
	"math"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. It is a distinct type from time.Duration to prevent simulated
// and wall-clock time from being mixed accidentally.
type Time int64

// Common durations, expressed in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders the time with a unit that keeps the magnitude readable.
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
	}
}

// Micros returns the time in microseconds as a float, the unit used by the
// paper's latency figures.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// event is a single scheduled callback. Exactly one of fn and call is set:
// fn is the general closure path, call+arg the typed fast path that lets a
// long-lived function value be scheduled many times with varying state and
// no per-event closure allocation.
type event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among equal timestamps
	fn   func()
	call func(arg uint64)
	arg  uint64
}

// before orders events by (at, seq): earlier timestamps first, FIFO among
// equals. (at, seq) pairs are unique, so this is a strict total order and
// the firing sequence is independent of which queue holds an event, and of
// heap shape or arity.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// heapArity is the fan-out of the event heap. A 4-ary heap halves the tree
// depth of a binary heap, trading slightly more comparisons per level for
// far fewer cache-missing levels — the standard layout for hot simulator
// queues (d-ary heaps sit one cache line per node group).
const heapArity = 4

// numLanes is the number of delay-keyed lanes. The device model has three
// hot hold lengths (bus transfer, read, program); the fourth lane takes a
// one-off hold such as a GC stall. Every lane adds a comparison to Step, so
// the set stays this small; a delay that finds no lane costs what it always
// did, a heap push.
const numLanes = 4

// rekeyAfter is how many delays must have gone without a lane since a lane's
// own delay was last scheduled before another delay may take the lane over.
// Keys are sticky on purpose: a one-off hold (a GC stall differs in length
// run to run, and sits in its lane for milliseconds) must not evict a hot
// delay whose lane happens to be empty, or the hot delay's events go to the
// heap for as long as the one-off is pending. But a delay that turns hot
// later — reads after a write-only phase on an engine that is never Reset —
// must still be able to replace a one-off's stale key.
const rekeyAfter = 16

// Queue indexes: lanes[:numLanes] are keyed by delay, lanes[inOrder] is the
// in-order lane, and fromHeap names the heap where a queue index is wanted.
const (
	inOrder   = numLanes
	fromHeap  = numLanes + 1
	numQueues = numLanes + 2
)

// never is the head timestamp of an empty queue: later than any event, so
// the scan for the earliest head needs no emptiness test. Nothing can be
// scheduled at it (checkSchedule).
const never Time = math.MaxInt64

// lane is a FIFO of events in non-decreasing (at, seq) order. Sequence
// numbers only grow, so refusing a timestamp before the tail's is all it
// takes to keep that order.
type lane struct {
	ring[event]
	d    Time // the delay a keyed lane currently serves
	cold int  // AfterCall delays that found no lane since this one's was last used
}

// Sources counts fired events by the kind of queue that held them. Where an
// event is queued never changes when it fires, only what it costs the host:
// a run whose Heap share is large is one the lanes are not helping.
type Sources struct {
	Lane    uint64 // delay-keyed lanes (AfterCall)
	InOrder uint64 // the in-order lane (ScheduleCall in timestamp order)
	Heap    uint64 // the heap: closures, and whatever no lane accepted
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now Time
	seq uint64
	// headAt[q] is the timestamp of queue q's earliest event, never when q
	// is empty: the six words Step scans instead of touching six queues.
	headAt [numQueues]Time
	lanes  [numLanes + 1]lane
	heap   []event           // inlined 4-ary min-heap ordered by (at, seq)
	fired  [numQueues]uint64 // events executed, by the queue that held them
	probe  Probe
	// probeNop caches whether probe is the no-op default so Step can skip
	// the interface call entirely on the uninstrumented hot path.
	probeNop bool
}

// NewEngine returns an engine with its clock at zero and no pending events.
func NewEngine() *Engine {
	e := &Engine{probe: NopProbe{}, probeNop: true}
	e.Reset()
	return e
}

// SetProbe attaches a probe notified after every event fires. A nil probe
// restores the no-op default.
func (e *Engine) SetProbe(p Probe) {
	e.probe = orNop(p)
	_, e.probeNop = e.probe.(NopProbe)
}

// Reset rewinds the engine to its initial state — clock at zero, no pending
// events, sequence and fired counters cleared, lanes unkeyed — while keeping
// the queues' allocated capacity. It makes one engine reusable across many
// simulations (internal/simrun runs the 42-strategy label loop on a single
// engine), and a reset engine behaves identically to a fresh one, so
// results stay byte-for-byte deterministic.
func (e *Engine) Reset() {
	e.now = 0
	e.seq = 0
	e.fired = [numQueues]uint64{}
	for q := range e.headAt {
		e.headAt[q] = never
	}
	for i := range e.lanes {
		l := &e.lanes[i]
		l.reset() // release captured closures
		// Unkeyed: the first delay to miss takes it.
		l.d, l.cold = 0, rekeyAfter
	}
	for i := range e.heap {
		e.heap[i] = event{}
	}
	e.heap = e.heap[:0]
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far. Useful for tests and
// for detecting runaway simulations.
func (e *Engine) Fired() uint64 {
	var n uint64
	for _, f := range e.fired {
		n += f
	}
	return n
}

// Sources returns the events executed so far, split by the kind of queue
// they were held in.
func (e *Engine) Sources() Sources {
	s := Sources{InOrder: e.fired[inOrder], Heap: e.fired[fromHeap]}
	for _, f := range e.fired[:numLanes] {
		s.Lane += f
	}
	return s
}

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int {
	n := len(e.heap)
	for i := range e.lanes {
		n += e.lanes[i].n
	}
	return n
}

// head returns queue q's earliest event; q must not be empty.
func (e *Engine) head(q int) *event {
	if q == fromHeap {
		return &e.heap[0]
	}
	return e.lanes[q].at(0)
}

// next spells the queues out: changing their number must not compile.
var _ = [1]struct{}{}[numQueues-6]

// next returns the queue holding the earliest pending event and that event's
// timestamp, or a negative index when nothing is pending. Every queue is
// sorted, so the earliest event overall is the (at, seq)-least of the heads.
func (e *Engine) next() (q int, at Time) {
	h := &e.headAt
	// Spelled out so it compiles to five conditional moves; a loop does not.
	at = min(h[0], h[1], h[2], h[3], h[4], h[5])
	if at == never {
		return -1, 0
	}
	// Which queue, and is it the only one?
	heads := 0
	for i := numQueues - 1; i >= 0; i-- {
		if h[i] == at {
			q = i
			heads++
		}
	}
	if heads > 1 {
		// Two heads at one instant are rare; seq decides between them.
		for i := q + 1; i < numQueues; i++ {
			if h[i] == at && e.head(i).seq < e.head(q).seq {
				q = i
			}
		}
	}
	return q, at
}

// NextAt peeks at the timestamp of the earliest pending event without firing
// it. Pacers use it to sleep until the next completion is actually due
// instead of polling on a fixed tick.
func (e *Engine) NextAt() (Time, bool) {
	q, at := e.next()
	return at, q >= 0
}

// push inserts ev into the heap, sifting up by (at, seq). The hole-shifting
// form moves parents down and writes ev once instead of swapping
// element-by-element.
func (e *Engine) push(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.heap = h
	e.headAt[fromHeap] = h[0].at
}

// pop removes and returns the heap's earliest event. The vacated tail slot is
// zeroed so the popped event's closure is unreachable from the backing
// array the moment it returns — pending-closure memory is released even if
// the heap's capacity is retained for the next run.
func (e *Engine) pop() event {
	h := e.heap
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	e.heap = h
	if n > 0 {
		// Sift last down from the root: at each level pick the least of
		// up to heapArity children.
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
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
		e.headAt[fromHeap] = h[0].at
	} else {
		e.headAt[fromHeap] = never
	}
	return root
}

// checkSchedule validates a timestamp and assigns the FIFO sequence number.
// Scheduling in the past panics: it always indicates a modelling bug, and
// silently clamping would corrupt causality. So does the one timestamp that
// stands for "no event" (never), which a delay can only reach by overflow.
func (e *Engine) checkSchedule(at Time) uint64 {
	if at < e.now || at == never {
		panic(fmt.Sprintf("sim: schedule at %v with the clock at %v: in the past, or at the end of time", at, e.now))
	}
	e.seq++
	return e.seq
}

// Schedule registers fn to run at absolute time at.
func (e *Engine) Schedule(at Time, fn func()) {
	seq := e.checkSchedule(at)
	e.push(event{at: at, seq: seq, fn: fn})
}

// ScheduleCall registers the typed fast-path event fn(arg) at absolute time
// at. Unlike Schedule, the function value can be created once and reused for
// every event of its kind (per-event state travels in arg), so the dominant
// absolute-time schedule site — trace-arrival injection — allocates nothing
// per event. Calls whose timestamps arrive in non-decreasing order, as a
// sorted trace's do, queue in the in-order lane; one that steps back goes to
// the heap.
func (e *Engine) ScheduleCall(at Time, fn func(arg uint64), arg uint64) {
	e.enqueue(inOrder, at, e.checkSchedule(at), fn, arg)
}

// After schedules fn to run d nanoseconds after the current time.
func (e *Engine) After(d Time, fn func()) {
	e.Schedule(e.now+d, fn)
}

// AfterCall schedules the typed fast-path event fn(arg) d nanoseconds after
// the current time. It is the schedule site of every resource hold. The
// event joins the lane keyed by d; a delay no lane is keyed by takes over a
// lane that is empty and whose own delay has gone cold (rekeyAfter), or
// else goes to the heap.
func (e *Engine) AfterCall(d Time, fn func(arg uint64), arg uint64) {
	at := e.now + d
	seq := e.checkSchedule(at)
	for q := 0; q < numLanes; q++ {
		if l := &e.lanes[q]; l.d == d {
			l.cold = 0
			e.enqueue(q, at, seq, fn, arg)
			return
		}
	}
	// No lane is keyed by d, and every lane grows colder by this miss.
	q := -1
	for i := 0; i < numLanes; i++ {
		l := &e.lanes[i]
		l.cold++
		if q < 0 && l.n == 0 && l.cold > rekeyAfter {
			l.d, l.cold = d, 0
			q = i
		}
	}
	e.enqueue(q, at, seq, fn, arg)
}

// enqueue appends a typed event to lane q if that keeps the lane sorted —
// its timestamp is not before the lane's newest — and pushes it onto the heap
// otherwise, or when there is no lane for it (q < 0). The lane slot is filled
// field by field: lanes carry most events, and a by-value event costs a copy
// per hand-off.
func (e *Engine) enqueue(q int, at Time, seq uint64, fn func(arg uint64), arg uint64) {
	if q >= 0 {
		l := &e.lanes[q]
		if l.n == 0 {
			e.headAt[q] = at
		}
		if l.n == 0 || at >= l.at(l.n-1).at {
			ev := l.alloc()
			ev.at, ev.seq, ev.call, ev.arg = at, seq, fn, arg
			return
		}
	}
	e.push(event{at: at, seq: seq, call: fn, arg: arg})
}

// Step executes the single earliest pending event and advances the clock to
// its timestamp. It returns false when no events remain.
func (e *Engine) Step() bool {
	q, _ := e.next()
	if q < 0 {
		return false
	}
	e.fire(q)
	return true
}

// fire pops the head of queue q — the one next returned — and executes it.
func (e *Engine) fire(q int) {
	e.fired[q]++
	if q == fromHeap {
		ev := e.pop()
		e.now = ev.at
		if ev.call != nil {
			ev.call(ev.arg)
		} else {
			ev.fn()
		}
	} else {
		l := &e.lanes[q]
		ev := l.at(0)
		at, call, arg := ev.at, ev.call, ev.arg // lanes hold typed events only
		l.drop()
		if l.n > 0 {
			e.headAt[q] = l.at(0).at
		} else {
			e.headAt[q] = never
		}
		e.now = at
		call(arg)
	}
	if !e.probeNop {
		e.probe.EventFired(e.now)
	}
}

// Run executes events until none remain and returns the final clock value.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// ctxCheckInterval is how many events RunContext executes between context
// polls. Polling a channel per event would dominate the hot loop; every 1024
// events keeps cancellation latency far below a millisecond of wall time
// while costing nothing measurable.
const ctxCheckInterval = 1024

// RunContext executes events until none remain or ctx is cancelled,
// returning the clock value reached and ctx.Err() if the run was cut short.
// A background (non-cancellable) context takes the same path as Run.
func (e *Engine) RunContext(ctx context.Context) (Time, error) {
	if ctx.Done() == nil {
		return e.Run(), nil
	}
	for {
		for i := 0; i < ctxCheckInterval; i++ {
			if !e.Step() {
				return e.now, nil
			}
		}
		if err := ctx.Err(); err != nil {
			return e.now, err
		}
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline (if it has not already passed it) and returns it. Events
// scheduled beyond the deadline remain pending.
func (e *Engine) RunUntil(deadline Time) Time {
	for {
		q, at := e.next()
		if q < 0 || at > deadline {
			break
		}
		e.fire(q)
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}
