package sim

import (
	"context"
	"errors"
	"testing"
)

// recordingProbe captures every probe callback for assertions.
type recordingProbe struct {
	events  int
	queued  []int // queue lengths reported
	granted []Time
	waits   []Time
	kinds   []ResourceKind
	indexes []int
	gcCalls int
}

func (p *recordingProbe) EventFired(Time) { p.events++ }
func (p *recordingProbe) ResourceQueued(kind ResourceKind, index, queueLen int) {
	p.queued = append(p.queued, queueLen)
}
func (p *recordingProbe) ResourceGranted(kind ResourceKind, index int, hold, wait Time) {
	p.kinds = append(p.kinds, kind)
	p.indexes = append(p.indexes, index)
	p.granted = append(p.granted, hold)
	p.waits = append(p.waits, wait)
}
func (p *recordingProbe) GC(plane int, moved, wearMoved, erases int, dieTime Time) { p.gcCalls++ }
func (p *recordingProbe) DieFailed(die, rebuilt int)                               {}
func (p *recordingProbe) BlockRetired(plane, moved int)                            {}
func (p *recordingProbe) ReadRetry(die, passes int)                                {}
func (p *recordingProbe) ProgramSlowdown(die int, extra Time)                      {}

func TestEngineProbeSeesEveryEvent(t *testing.T) {
	e := NewEngine()
	var p recordingProbe
	e.SetProbe(&p)
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if p.events != 7 {
		t.Errorf("probe saw %d events, want 7", p.events)
	}
}

func TestResourceProbeSeesQueueingAndGrants(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus0")
	var p recordingProbe
	r.Instrument(&p, KindBus, 3)
	e.Schedule(0, func() {
		r.Use(0, 10, nil) // immediate grant, wait 0
		r.Use(0, 10, nil) // queued behind the first, waits 10
	})
	e.Run()
	if len(p.queued) != 1 || p.queued[0] != 1 {
		t.Errorf("queued events %v, want one report of depth 1", p.queued)
	}
	if len(p.granted) != 2 {
		t.Fatalf("grants %d, want 2", len(p.granted))
	}
	if p.granted[0] != 10 || p.granted[1] != 10 {
		t.Errorf("hold times %v, want [10 10]", p.granted)
	}
	if p.waits[0] != 0 || p.waits[1] != 10 {
		t.Errorf("wait times %v, want [0 10]", p.waits)
	}
	for i := range p.kinds {
		if p.kinds[i] != KindBus || p.indexes[i] != 3 {
			t.Errorf("grant %d attributed to (%v,%d), want (KindBus,3)", i, p.kinds[i], p.indexes[i])
		}
	}
}

func TestSetProbeNilRestoresNop(t *testing.T) {
	e := NewEngine()
	e.SetProbe(nil) // must not panic when events fire
	e.Schedule(1, func() {})
	e.Run()
	r := NewResource(e, "x")
	r.Instrument(nil, KindDie, 0)
	r.Use(0, 1, nil)
	e.Run()
}

// TestEngineResetBehavesLikeFresh asserts the engine-reuse contract: a reset
// engine replays a schedule with exactly the same clock, order and counters
// as a brand-new engine.
func TestEngineResetBehavesLikeFresh(t *testing.T) {
	script := func(e *Engine) (order []int, end Time) {
		e.Schedule(5, func() { order = append(order, 1) })
		e.Schedule(5, func() { order = append(order, 2) })
		e.Schedule(3, func() {
			order = append(order, 0)
			e.After(10, func() { order = append(order, 3) })
		})
		end = e.Run()
		return order, end
	}
	fresh := NewEngine()
	wantOrder, wantEnd := script(fresh)

	reused := NewEngine()
	reused.Schedule(100, func() {})
	reused.Run()
	reused.Reset()
	if reused.Now() != 0 || reused.Fired() != 0 || reused.Pending() != 0 {
		t.Fatalf("after Reset: now=%v fired=%d pending=%d, want all zero",
			reused.Now(), reused.Fired(), reused.Pending())
	}
	gotOrder, gotEnd := script(reused)
	if gotEnd != wantEnd {
		t.Errorf("reset engine ended at %v, fresh at %v", gotEnd, wantEnd)
	}
	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("event counts differ: %v vs %v", gotOrder, wantOrder)
	}
	for i := range wantOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("order differs: %v vs %v", gotOrder, wantOrder)
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	// Self-perpetuating schedule: without cancellation this would run
	// far past the poll interval.
	var fired int
	var reschedule func()
	reschedule = func() {
		fired++
		if fired == ctxCheckInterval/2 {
			cancel()
		}
		if fired < 10*ctxCheckInterval {
			e.After(1, reschedule)
		}
	}
	e.Schedule(0, reschedule)
	_, err := e.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext returned %v, want context.Canceled", err)
	}
	if fired >= 10*ctxCheckInterval {
		t.Errorf("engine ran to completion (%d events) despite cancellation", fired)
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(10*i), func() {})
	}
	end, err := e.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if end != 40 {
		t.Errorf("RunContext end %v, want 40", end)
	}
	if e.Fired() != 5 {
		t.Errorf("fired %d, want 5", e.Fired())
	}
}
