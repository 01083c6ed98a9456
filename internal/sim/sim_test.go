package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// The last representable instant stands for "no event" inside the engine, so
// nothing may be scheduled at it; only an overflowing delay could ask.
func TestEngineScheduleAtEndOfTimePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("scheduling at the end of time did not panic")
		}
	}()
	e.AfterCall(math.MaxInt64, func(uint64) {}, 0)
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

// A priority outside the levels a Resource arbitrates is a modelling bug and
// panics, idle or busy, like a schedule in the past does.
func TestResourcePriorityOutOfRangePanics(t *testing.T) {
	for _, prio := range []int{-1, numPrio} {
		for _, busy := range []bool{false, true} {
			e := NewEngine()
			r := NewResource(e, "die")
			if busy {
				r.Use(0, 10, nil)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Use(prio %d) on a resource with busy=%v did not panic", prio, busy)
					}
				}()
				r.Use(prio, 10, nil)
			}()
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
// stable sort of the schedule order. This pins the engine's total order
// against the reference semantics regardless of which queue holds an event.
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

// assertNoEventRefs fails if any backing slot of the heap or of a lane — in
// use or not — still references a callback.
func assertNoEventRefs(t *testing.T, e *Engine, when string) {
	t.Helper()
	check := func(queue string, evs []event) {
		for i := range evs {
			if evs[i].fn != nil || evs[i].call != nil {
				t.Fatalf("%s backing slot %d still references a callback %s", queue, i, when)
			}
		}
	}
	check("heap", e.heap[:cap(e.heap)])
	for i := range e.lanes {
		check(fmt.Sprintf("lane %d", i), e.lanes[i].buf)
	}
}

// scheduleEverywhere puts n events into each kind of queue — keyed lanes
// (two delays), the in-order lane, and the heap (closures, and typed events
// that step back in time) — all at or after base, and returns how many it
// scheduled.
func scheduleEverywhere(t *testing.T, e *Engine, base Time, n int) int {
	t.Helper()
	for i := 0; i < n; i++ {
		payload := make([]byte, 1)
		hold := func(uint64) { _ = payload }
		e.Schedule(base+Time(i%10), func() { _ = payload })
		e.ScheduleCall(base+Time(i), hold, 0)      // in order
		e.ScheduleCall(base+Time(n-i), hold, 0)    // steps back: heap
		e.AfterCall(base-e.Now()+20, hold, 0)      // lane keyed 20
		e.AfterCall(base-e.Now()+700, hold, 0)     // lane keyed 700
		e.AfterCall(base-e.Now()+Time(i), hold, 0) // a delay per event
	}
	var inLanes int
	for i := range e.lanes {
		if e.lanes[i].n == 0 {
			t.Fatalf("lane %d holds nothing; the test no longer covers it", i)
		}
		inLanes += e.lanes[i].n
	}
	if len(e.heap) == 0 || inLanes+len(e.heap) != 6*n {
		t.Fatalf("%d events in lanes and %d in the heap, want %d in all and some in each",
			inLanes, len(e.heap), 6*n)
	}
	return 6 * n
}

// Regression for the event-queue reference leak: popped and drained slots of
// the heap's and the lanes' backing arrays must not keep scheduled callbacks
// (and whatever they capture) reachable after the run consumed them.
func TestEngineReleasesEventReferencesAfterRun(t *testing.T) {
	e := NewEngine()
	n := scheduleEverywhere(t, e, 0, 100)
	e.Run()
	if got := e.Fired(); got != uint64(n) {
		t.Fatalf("fired %d of %d events", got, n)
	}
	assertNoEventRefs(t, e, "after Run")
}

func TestEngineResetReleasesPendingEventReferences(t *testing.T) {
	e := NewEngine()
	scheduleEverywhere(t, e, 1000, 50)
	e.RunUntil(10) // consume nothing, just advance
	e.Reset()
	if e.Pending() != 0 || e.Now() != 0 {
		t.Fatalf("Reset left pending=%d now=%v", e.Pending(), e.Now())
	}
	assertNoEventRefs(t, e, "after Reset")
}

// RunUntil partway through a schedule followed by Reset must leave the
// engine indistinguishable from a fresh one, whichever queues the abandoned
// events sat in.
func TestEngineRunUntilThenResetBehavesFresh(t *testing.T) {
	run := func(e *Engine) []Time {
		var fired []Time
		rec := func(uint64) { fired = append(fired, e.Now()) }
		for _, at := range []Time{5, 15, 25} {
			e.Schedule(at, func() { rec(0) })
			e.ScheduleCall(at+1, rec, 0)
			e.AfterCall(at+2, rec, 0)
			e.AfterCall(7, rec, 0)
		}
		e.Run()
		return fired
	}
	used := NewEngine()
	scheduleEverywhere(t, used, 0, 40)
	used.RunUntil(25) // fires some of each queue and leaves some in each
	if used.Fired() == 0 || used.Pending() == 0 {
		t.Fatalf("RunUntil fired %d and left %d; want some of both", used.Fired(), used.Pending())
	}
	used.Reset()
	fresh := NewEngine()
	got, want := run(used), run(fresh)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reset engine fired %v, fresh %v", got, want)
	}
	if used.Sources() != fresh.Sources() {
		t.Errorf("Sources() = %+v after reset, fresh %+v", used.Sources(), fresh.Sources())
	}
}

// The engine counts fired events by the queue that held them: resource holds
// of a repeated length and in-order arrivals must not touch the heap, and
// what the lanes cannot take must still fire, from the heap.
func TestEngineSourcesSplit(t *testing.T) {
	e := NewEngine()
	nop := func(uint64) {}
	for i := 0; i < 10; i++ {
		e.ScheduleCall(Time(10*i), nop, 0) // sorted arrivals
		e.AfterCall(3, nop, 0)             // one hold length
	}
	e.ScheduleCall(5, nop, 0) // before the in-order tail
	e.Schedule(7, func() {})  // a closure
	for d := Time(100); d < 100+numLanes; d++ {
		e.AfterCall(d, nop, 0) // more delays than lanes: the last finds none free
	}
	e.Run()
	want := Sources{Lane: 10 + numLanes - 1, InOrder: 10, Heap: 3}
	if got := e.Sources(); got != want {
		t.Errorf("Sources() = %+v, want %+v", got, want)
	}
	if e.Fired() != want.Lane+want.InOrder+want.Heap {
		t.Errorf("Fired() = %d, want the sum of %+v", e.Fired(), want)
	}
}

// Lane keys are sticky: a one-off delay does not take a hot delay's lane just
// because the lane is empty. But not for ever: once enough delays have gone
// without a lane since a lane's own was last scheduled, a newcomer takes it.
func TestEngineLaneKeysStickUntilCold(t *testing.T) {
	e := NewEngine()
	nop := func(uint64) {}
	fire := func(d Time) Sources {
		t.Helper()
		before := e.Sources()
		e.AfterCall(d, nop, 0)
		e.Run() // every lane is empty again before the next delay arrives
		after := e.Sources()
		return Sources{Lane: after.Lane - before.Lane, Heap: after.Heap - before.Heap}
	}
	lane, heap := Sources{Lane: 1}, Sources{Heap: 1}
	for d := Time(1); d <= numLanes; d++ {
		if got := fire(d); got != lane {
			t.Fatalf("delay %v on a fresh engine: %+v, want a lane", d, got)
		}
	}
	// Claiming the later lanes already cooled the earlier ones a little,
	// hence the margin.
	for i := 0; i < rekeyAfter-numLanes; i++ {
		if got := fire(Time(100 + i)); got != heap {
			t.Fatalf("one-off %d took a keyed lane: %+v", i, got)
		}
		if got := fire(1); got != lane { // delay 1 stays in use, the others go cold
			t.Fatalf("delay 1 lost its lane: %+v", got)
		}
	}
	for misses := 0; fire(50) != lane; misses++ {
		if misses > numLanes {
			t.Fatalf("newcomer still without a lane after %d more misses", misses)
		}
	}
	for i := 0; i < 3; i++ {
		if got := fire(50); got != lane {
			t.Fatalf("newcomer lost the lane it took: %+v", got)
		}
	}
	if got := fire(1); got != lane {
		t.Fatalf("the delay still in use lost its lane to the newcomer: %+v", got)
	}
}

// orderRef is one scheduled event in FuzzEngineOrder's reference model. id is
// its position in schedule order since the last Reset, which is the order the
// engine draws seq in.
type orderRef struct {
	at Time
	id int
}

// FuzzEngineOrder runs a random program of Schedule / ScheduleCall /
// AfterCall — delays drawn from a small set (which key lanes) and arbitrary
// ones, scheduling from inside events, RunUntil and Reset boundaries — and
// checks at every boundary that events fired in exactly the order of a
// reference slice sorted by (at, seq), none lost or duplicated, and that
// Pending, NextAt, Fired and Sources agree with the reference.
func FuzzEngineOrder(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(int64(7), []byte{2, 2, 2, 6, 6, 6, 235, 10, 10, 3, 2, 2, 252, 2, 1, 1, 240})
	f.Add(int64(3), []byte{1, 17, 33, 49, 65, 81, 97, 113, 129, 145, 161, 177, 193, 209})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		rng := rand.New(rand.NewSource(seed))
		holds := []Time{0, 3, 20, 75, 200} // few values, so lanes see repeats
		e := NewEngine()
		var pending, fired []orderRef // scheduled and not yet checked off; fired since the last check
		nextID, firedTotal := 0, uint64(0)

		const maxDepth = 3 // bounds the events an event may schedule in turn
		var schedule func(op byte, depth int)
		fire := func(id, depth int) {
			fired = append(fired, orderRef{at: e.Now(), id: id})
			firedTotal++
			if depth < maxDepth && rng.Intn(3) == 0 {
				for k := rng.Intn(3); k >= 0; k-- {
					schedule(byte(rng.Intn(230)), depth+1)
				}
			}
		}
		call := func(arg uint64) { fire(int(arg>>2), int(arg&3)) }
		schedule = func(op byte, depth int) {
			id := nextID
			nextID++
			arg := uint64(id)<<2 | uint64(depth)
			at := e.Now()
			switch op % 4 {
			case 0: // closure at an absolute time: heap
				at += Time(rng.Intn(300))
				e.Schedule(at, func() { fire(id, depth) })
			case 1: // typed, absolute time: in-order lane, or heap when it steps back
				at += Time(rng.Intn(300))
				e.ScheduleCall(at, call, arg)
			case 2: // typed, delay from the small set: keyed lanes
				d := holds[int(op/4)%len(holds)]
				at += d
				e.AfterCall(d, call, arg)
			case 3: // typed, arbitrary delay: a lane if one is unkeyed or cold, else heap
				d := Time(rng.Intn(1000))
				at += d
				e.AfterCall(d, call, arg)
			}
			pending = append(pending, orderRef{at: at, id: id})
		}
		// check takes the reference events due by the clock (all of them
		// after a full Run), sorted by (at, id), and requires that exactly
		// those fired, in that order.
		check := func(all bool) {
			t.Helper()
			sort.Slice(pending, func(i, j int) bool {
				if pending[i].at != pending[j].at {
					return pending[i].at < pending[j].at
				}
				return pending[i].id < pending[j].id
			})
			due := len(pending)
			if !all {
				due = sort.Search(len(pending), func(i int) bool { return pending[i].at > e.Now() })
			}
			if len(fired) != due || due > 0 && !reflect.DeepEqual(fired, pending[:due]) {
				t.Fatalf("fired %v\nwant  %v", fired, pending[:due])
			}
			pending = append(pending[:0], pending[due:]...)
			fired = fired[:0]
			if e.Pending() != len(pending) {
				t.Fatalf("Pending() = %d, reference holds %d", e.Pending(), len(pending))
			}
			if at, ok := e.NextAt(); ok != (len(pending) > 0) || ok && at != pending[0].at {
				t.Fatalf("NextAt() = %v, %v; reference holds %v", at, ok, pending)
			}
			src := e.Sources()
			if sum := src.Lane + src.InOrder + src.Heap; sum != firedTotal || e.Fired() != firedTotal {
				t.Fatalf("Sources %+v, Fired() = %d; %d events fired", src, e.Fired(), firedTotal)
			}
		}
		for _, op := range prog {
			switch {
			case op >= 250: // Reset: whatever is pending is dropped
				e.Reset()
				pending, nextID, firedTotal = pending[:0], 0, 0
				check(false)
			case op >= 230:
				e.RunUntil(e.Now() + Time(rng.Intn(400)))
				check(false)
			default:
				schedule(op, 0)
			}
		}
		e.Run()
		check(true)
	})
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
		for p := range r.queues {
			for i := 0; i < r.queues[p].n; i++ {
				load += r.queues[p].at(i).hold
			}
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
