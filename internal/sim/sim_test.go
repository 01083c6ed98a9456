package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{20 * Microsecond, "20.00us"},
		{1500 * Microsecond, "1.500ms"},
		{2 * Second, "2.000000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeMicros(t *testing.T) {
	if got := (1500 * Nanosecond).Micros(); got != 1.5 {
		t.Errorf("Micros() = %v, want 1.5", got)
	}
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Errorf("Run() = %v, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineFIFOAmongEqualTimes(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("equal-time events fired out of order: %v", order)
		}
	}
}

func TestEngineScheduleFromWithinEvent(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Errorf("fired = %v, want [10 15]", fired)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for _, at := range []Time{10, 20, 30, 40} {
		e.Schedule(at, func() { count++ })
	}
	e.RunUntil(25)
	if count != 2 {
		t.Errorf("events fired by t=25: %d, want 2", count)
	}
	if e.Now() != 25 {
		t.Errorf("Now() = %v, want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	e.Run()
	if count != 4 {
		t.Errorf("total events fired: %d, want 4", count)
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Errorf("Now() = %v, want 1000", e.Now())
	}
}

func TestEngineFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Fired() != 5 {
		t.Errorf("Fired() = %d, want 5", e.Fired())
	}
}

// Property: regardless of insertion order, events fire sorted by timestamp.
func TestEngineOrderProperty(t *testing.T) {
	f := func(stamps []uint16) bool {
		if len(stamps) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, s := range stamps {
			at := Time(s)
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(stamps) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestResourceImmediateGrantWhenIdle(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	var doneAt Time = -1
	r.Use(0, 100, func() { doneAt = e.Now() })
	e.Run()
	if doneAt != 100 {
		t.Errorf("completion at %v, want 100", doneAt)
	}
}

func TestResourceSerializesHolds(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	var ends []Time
	for i := 0; i < 3; i++ {
		r.Use(0, 100, func() { ends = append(ends, e.Now()) })
	}
	e.Run()
	want := []Time{100, 200, 300}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourcePriorityPreemptsQueueOrder(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	var order []string
	r.Use(1, 100, func() { order = append(order, "first-write") })
	r.Use(1, 100, func() { order = append(order, "queued-write") })
	r.Use(0, 10, func() { order = append(order, "read") })
	e.Run()
	if order[0] != "first-write" || order[1] != "read" || order[2] != "queued-write" {
		t.Errorf("service order = %v; read should jump the queued write", order)
	}
}

func TestResourceConflictAccounting(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	r.Use(0, 100, nil)
	r.Use(0, 100, nil)
	r.Use(0, 100, nil)
	e.Run()
	s := r.Snapshot()
	if s.Grants != 3 {
		t.Errorf("grants = %d, want 3", s.Grants)
	}
	if s.Contended != 2 {
		t.Errorf("contended = %d, want 2", s.Contended)
	}
	// Second op waits 100, third waits 200.
	if s.WaitTime != 300 {
		t.Errorf("wait time = %v, want 300", s.WaitTime)
	}
	if s.BusyTime != 300 {
		t.Errorf("busy time = %v, want 300", s.BusyTime)
	}
	if s.MaxQueue != 2 {
		t.Errorf("max queue = %d, want 2", s.MaxQueue)
	}
}

func TestResourceLoadEstimate(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	r.Use(0, 100, nil)
	r.Use(0, 50, nil)
	if got := r.Load(0); got != 150 {
		t.Errorf("Load = %v, want 150", got)
	}
	e.Run()
	if got := r.Load(e.Now()); got != 0 {
		t.Errorf("Load after drain = %v, want 0", got)
	}
}

func TestResourceInterleavedArrivals(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "die")
	var ends []Time
	e.Schedule(0, func() { r.Use(0, 100, func() { ends = append(ends, e.Now()) }) })
	// Arrives while busy: starts at 100.
	e.Schedule(50, func() { r.Use(0, 100, func() { ends = append(ends, e.Now()) }) })
	// Arrives after idle gap: starts at its arrival.
	e.Schedule(500, func() { r.Use(0, 100, func() { ends = append(ends, e.Now()) }) })
	e.Run()
	want := []Time{100, 200, 600}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

// Property: total busy time equals the sum of holds, and every operation
// completes exactly once, under random arrivals/holds/priorities.
func TestResourceConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		r := NewResource(e, "x")
		n := 1 + rng.Intn(40)
		var wantBusy Time
		completed := 0
		for i := 0; i < n; i++ {
			hold := Time(1 + rng.Intn(1000))
			at := Time(rng.Intn(5000))
			prio := rng.Intn(3)
			wantBusy += hold
			e.Schedule(at, func() {
				r.Use(prio, hold, func() { completed++ })
			})
		}
		e.Run()
		s := r.Snapshot()
		if completed != n {
			t.Fatalf("trial %d: completed %d of %d", trial, completed, n)
		}
		if s.BusyTime != wantBusy {
			t.Fatalf("trial %d: busy %v, want %v", trial, s.BusyTime, wantBusy)
		}
		if s.Grants != uint64(n) {
			t.Fatalf("trial %d: grants %d, want %d", trial, s.Grants, n)
		}
	}
}

func TestEngineScheduleCallPassesArg(t *testing.T) {
	e := NewEngine()
	var got []uint64
	fn := func(arg uint64) { got = append(got, arg) }
	e.ScheduleCall(10, fn, 7)
	e.ScheduleCall(20, fn, 9)
	e.Run()
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Errorf("args = %v, want [7 9]", got)
	}
}

func TestEngineAfterCall(t *testing.T) {
	e := NewEngine()
	var at Time
	var arg uint64
	e.Schedule(10, func() {
		e.AfterCall(5, func(a uint64) { at, arg = e.Now(), a }, 3)
	})
	e.Run()
	if at != 15 || arg != 3 {
		t.Errorf("fired at %v with arg %d, want 15 and 3", at, arg)
	}
}

func TestEngineScheduleCallPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleCall in the past did not panic")
			}
		}()
		e.ScheduleCall(5, func(uint64) {}, 0)
	})
	e.Run()
}

// Property: a random interleave of typed and closure events fires in exactly
// (at, seq) order — i.e. sorted by time, FIFO among equal times — matching a
// stable sort of the schedule order. This pins the 4-ary heap's total order
// against the reference semantics regardless of arity or sift details.
func TestEngineMixedTypedOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		e := NewEngine()
		n := 1 + rng.Intn(200)
		at := make([]Time, n)
		var fired []int
		rec := func(arg uint64) { fired = append(fired, int(arg)) }
		for i := 0; i < n; i++ {
			at[i] = Time(rng.Intn(50)) // dense range forces many ties
			if rng.Intn(2) == 0 {
				e.ScheduleCall(at[i], rec, uint64(i))
			} else {
				i := i
				e.Schedule(at[i], func() { fired = append(fired, i) })
			}
		}
		e.Run()
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return at[want[a]] < at[want[b]] })
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: fired[%d] = %d, want %d (full %v)", trial, i, fired[i], want[i], fired)
			}
		}
	}
}

// Regression for the event-heap reference leak: popped and drained slots of
// the heap's backing array must not keep scheduled callbacks (and whatever
// they capture) reachable after the run consumed them.
func TestEngineReleasesEventReferencesAfterRun(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		payload := make([]byte, 1)
		e.Schedule(Time(i%10), func() { _ = payload })
		e.ScheduleCall(Time(i%10), func(uint64) { _ = payload }, 0)
	}
	e.Run()
	evs := e.events[:cap(e.events)]
	for i := range evs {
		if evs[i].fn != nil || evs[i].call != nil {
			t.Fatalf("backing slot %d still references a callback after Run", i)
		}
	}
}

func TestEngineResetReleasesPendingEventReferences(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 50; i++ {
		e.Schedule(Time(1000+i), func() {})
	}
	e.RunUntil(10) // consume nothing, just advance
	e.Reset()
	if e.Pending() != 0 || e.Now() != 0 {
		t.Fatalf("Reset left pending=%d now=%v", e.Pending(), e.Now())
	}
	evs := e.events[:cap(e.events)]
	for i := range evs {
		if evs[i].fn != nil || evs[i].call != nil {
			t.Fatalf("backing slot %d still references a callback after Reset", i)
		}
	}
}

// RunUntil partway through a schedule followed by Reset must leave the
// engine indistinguishable from a fresh one.
func TestEngineRunUntilThenResetBehavesFresh(t *testing.T) {
	run := func(e *Engine) []Time {
		var fired []Time
		for _, at := range []Time{5, 15, 25} {
			at := at
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		e.Run()
		return fired
	}
	used := NewEngine()
	for _, at := range []Time{10, 20, 30, 40} {
		used.Schedule(at, func() {})
	}
	used.RunUntil(25) // fires 2 of 4, clock at 25, 2 pending
	used.Reset()
	fresh := NewEngine()
	got, want := run(used), run(fresh)
	if len(got) != len(want) {
		t.Fatalf("reset engine fired %v, fresh %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reset engine fired %v, fresh %v", got, want)
		}
	}
	if used.Fired() != fresh.Fired() {
		t.Errorf("Fired() = %d after reset, fresh %d", used.Fired(), fresh.Fired())
	}
}

// A Reset resource must reproduce a fresh resource's grant order, timing,
// and statistics exactly (including seq-based FIFO tie-breaks).
func TestResourceResetBehavesFresh(t *testing.T) {
	drive := func(e *Engine, r *Resource) ([]Time, Stats) {
		var ends []Time
		for i := 0; i < 4; i++ {
			prio := i % 2
			e.Schedule(Time(i*10), func() {
				r.Use(prio, 100, func() { ends = append(ends, e.Now()) })
			})
		}
		e.Run()
		return ends, r.Snapshot()
	}
	e := NewEngine()
	r := NewResource(e, "bus")
	first, firstStats := drive(e, r)
	e.Reset()
	r.Reset()
	second, secondStats := drive(e, r)
	if len(first) != len(second) {
		t.Fatalf("runs completed %d vs %d ops", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("completion times diverge: %v vs %v", first, second)
		}
	}
	if firstStats != secondStats {
		t.Errorf("stats diverge after reset: %+v vs %+v", firstStats, secondStats)
	}
}

// Property: Load's running sum equals its definition — remaining hold of the
// current operation plus the hold of every queued waiter — after any
// sequence of uses, completions and resets.
func TestResourceLoadMatchesQueueSum(t *testing.T) {
	summed := func(r *Resource, now Time) Time {
		var load Time
		if r.busy && r.busyUntil > now {
			load = r.busyUntil - now
		}
		for i := range r.waiters {
			load += r.waiters[i].hold
		}
		return load
	}
	rng := rand.New(rand.NewSource(7))
	e := NewEngine()
	r := NewResource(e, "die")
	for trial := 0; trial < 40; trial++ {
		for op := 0; op < 200; op++ {
			switch rng.Intn(3) {
			case 0, 1:
				r.Use(rng.Intn(3), Time(1+rng.Intn(1000)), nil)
			case 2:
				e.Step() // finish the current hold, grant the next waiter
			}
			if got, want := r.Load(e.Now()), summed(r, e.Now()); got != want {
				t.Fatalf("trial %d op %d: Load = %v, queue sums to %v (%d waiting)",
					trial, op, got, want, r.QueueLen())
			}
		}
		if trial%2 == 0 {
			e.Run()
		} else { // reset mid-queue
			e.Reset()
			r.Reset()
		}
		if got := r.Load(e.Now()); got != 0 {
			t.Fatalf("trial %d: Load = %v on an idle resource", trial, got)
		}
	}
}
