package sim

// ResourceKind labels the class of hardware a Resource models, so a probe
// can route its observations without string matching on resource names.
type ResourceKind uint8

// Resource kinds instrumented by the SSD model.
const (
	// KindBus is a channel bus; the index is the channel number.
	KindBus ResourceKind = iota
	// KindDie is a flash die; the index is the device-wide die number.
	KindDie
)

// Probe receives fine-grained observations from inside a simulation run:
// every event the engine fires, every queue/grant transition on an
// instrumented resource, and the FTL-level garbage-collection and fault
// outcomes. Implementations must be cheap — probe methods sit on the
// simulation hot path and are called once per event or per flash operation.
//
// Probes are wired in by internal/simrun; NopProbe is the default and keeps
// the hot path allocation-free.
type Probe interface {
	// EventFired is called after each engine event executes, with the
	// clock value the event fired at.
	EventFired(now Time)
	// ResourceQueued is called when a request finds the resource busy and
	// joins the wait queue; queueLen is the queue length including the
	// new arrival (not counting the current holder).
	ResourceQueued(kind ResourceKind, index, queueLen int)
	// ResourceGranted is called when the resource is granted: hold is the
	// occupancy duration, wait the time spent queued (zero when granted
	// immediately).
	ResourceGranted(kind ResourceKind, index int, hold, wait Time)
	// GC is called once per garbage-collection invocation with the victim
	// plane, valid pages relocated by GC, pages migrated by static wear
	// leveling, blocks erased, and the total die time the cleaning
	// occupies (the erase stall seen by the die).
	GC(plane, moved, wearMoved, erases int, dieTime Time)
	// DieFailed is called once when an injected fault kills a die, with
	// the device-wide die index and the valid pages rebuilt onto live
	// dies.
	DieFailed(die, rebuilt int)
	// BlockRetired is called once per block an injected fault retires,
	// with the flat plane index and the valid pages relocated.
	BlockRetired(plane, moved int)
	// ReadRetry is called when a read needs extra sensing passes, with
	// the number of extra passes charged to the die.
	ReadRetry(die, passes int)
	// ProgramSlowdown is called when wear-dependent slowdown stretches a
	// program, with the extra die time beyond the nominal latency.
	ProgramSlowdown(die int, extra Time)
}

// NopProbe is a Probe that discards everything. It is the default probe on
// engines, resources and FTLs, so instrumented code never needs a nil check.
type NopProbe struct{}

// EventFired implements Probe.
func (NopProbe) EventFired(Time) {}

// ResourceQueued implements Probe.
func (NopProbe) ResourceQueued(ResourceKind, int, int) {}

// ResourceGranted implements Probe.
func (NopProbe) ResourceGranted(ResourceKind, int, Time, Time) {}

// GC implements Probe.
func (NopProbe) GC(int, int, int, int, Time) {}

// DieFailed implements Probe.
func (NopProbe) DieFailed(int, int) {}

// BlockRetired implements Probe.
func (NopProbe) BlockRetired(int, int) {}

// ReadRetry implements Probe.
func (NopProbe) ReadRetry(int, int) {}

// ProgramSlowdown implements Probe.
func (NopProbe) ProgramSlowdown(int, Time) {}

// orNop maps nil to NopProbe so stored probes are always callable.
func orNop(p Probe) Probe {
	if p == nil {
		return NopProbe{}
	}
	return p
}
