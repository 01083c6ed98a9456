package sim

import "testing"

// pageWalk is the benchmark's stand-in for a flash page operation: it holds
// a die, then a bus, then the die again, for as long as the shared budget
// lasts — the hold → finish → regrant cycle of the device model with no
// model behind it.
type pageWalk struct {
	die, bus *Resource
	onBus    bool
	read     bool
	left     *int
}

func (w *pageWalk) OnComplete() {
	if *w.left == 0 {
		return
	}
	*w.left--
	w.onBus = !w.onBus
	switch {
	case w.onBus:
		w.bus.UseCompletion(1, 40*Microsecond, w)
	case w.read:
		w.die.UseCompletion(1, 20*Microsecond, w)
	default:
		w.die.UseCompletion(1, 200*Microsecond, w)
	}
}

// BenchmarkEngineHold is the event core's cost per resource hold, on the
// evaluation geometry's 8 buses and 16 dies with its three hold lengths.
// idle: every walk owns its die and bus, so each hold is granted on request
// and the only queue touched is the engine's. contended: eight walks per
// bus, so most holds also pass through a Resource's wait rings. Both must
// report 0 allocs/op (scripts/bench_gate.sh): after the rings have grown to
// the walks in flight, nothing on this path allocates.
func BenchmarkEngineHold(b *testing.B) {
	for _, c := range []struct {
		name  string
		walks int
	}{{"idle", 8}, {"contended", 64}} {
		b.Run(c.name, func(b *testing.B) {
			e := NewEngine()
			buses := make([]*Resource, 8)
			for i := range buses {
				buses[i] = NewResource(e, "bus")
			}
			dies := make([]*Resource, 16)
			for i := range dies {
				dies[i] = NewResource(e, "die")
			}
			left := b.N
			walks := make([]pageWalk, c.walks)
			for i := range walks {
				walks[i] = pageWalk{die: dies[i%len(dies)], bus: buses[i%len(buses)], read: i%2 == 0, left: &left, onBus: true}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range walks {
				walks[i].OnComplete()
			}
			e.Run()
			if left != 0 {
				b.Fatalf("%d of %d holds never ran", left, b.N)
			}
			if src := e.Sources(); src.Heap != 0 {
				b.Fatalf("constant holds reached the heap: %+v", src)
			}
		})
	}
}
