package serve

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/ssd"
)

// TestConcurrentServe is the race detector's workout: many client
// goroutines submit and wait against a started (paced) node while metrics
// scrapes, status reads and time barriers run concurrently, then the node
// drains under fire and the readers go on reading its frozen state.
func TestConcurrentServe(t *testing.T) {
	cfg := Config{
		Device:  nand.EvalConfig(),
		Options: ssd.DefaultOptions(),
		Accel:   1000,
		Now:     time.Now,
	}
	s := testServer(t, cfg, nil)
	s.Start()

	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	var okCount, rejCount, canceledCount int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			for i := 0; i < perWorker; i++ {
				_, err := submitWait(ctx, s, writeReq(w%4, int64(i)))
				mu.Lock()
				switch {
				case err == nil:
					okCount++
				case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
					rejCount++
				case errors.Is(err, context.DeadlineExceeded):
					canceledCount++
				default:
					t.Errorf("worker %d: unexpected error %v", w, err)
				}
				mu.Unlock()
			}
		}(w)
	}
	// Concurrent scrapers exercise the lock-free metrics and status paths.
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-stopScrape:
					return
				default:
				}
				var sb strings.Builder
				s.WriteMetrics(&sb)
				s.Status()
				s.SimNow()
			}
		}()
	}
	wg.Wait()

	res := s.Drain()
	for i := 0; i < 10; i++ {
		var sb strings.Builder
		s.WriteMetrics(&sb)
	}
	close(stopScrape)
	scrapeWG.Wait()
	if err := s.Err(); err != nil {
		t.Fatalf("server poisoned: %v", err)
	}
	if okCount == 0 {
		t.Fatal("no request completed")
	}
	if got := okCount + rejCount + canceledCount; got != workers*perWorker {
		t.Errorf("accounted %d outcomes, want %d", got, workers*perWorker)
	}
	// A canceled request may still have been dispatched (and completed on
	// the device), so equality only holds when nothing was canceled.
	if canceledCount == 0 && res.Requests != int(okCount) {
		t.Errorf("drained result has %d requests, completions say %d", res.Requests, okCount)
	}
}

// TestPendingFIFOBoundedByLiveEntries pins the admission queue's memory
// contract: however many requests pass through, the backing array is sized by
// the entries queued at once, and nothing popped stays reachable from it.
func TestPendingFIFOBoundedByLiveEntries(t *testing.T) {
	const maxLive = 64
	var q pendingFIFO
	rng := rand.New(rand.NewSource(5))
	var want []*Pending // reference queue
	for i := 0; i < 200000; i++ {
		switch {
		case len(want) == 0 || (len(want) < maxLive && rng.Intn(2) == 0):
			p := &Pending{}
			q.push(p)
			want = append(want, p)
		default:
			if got := q.pop(); got != want[0] {
				t.Fatalf("step %d: pop returned the wrong entry", i)
			}
			want = want[1:]
		}
		if q.len() != len(want) {
			t.Fatalf("step %d: len %d, want %d", i, q.len(), len(want))
		}
	}
	for i, p := range q.live() {
		if p != want[i] {
			t.Fatalf("live()[%d] differs from the reference queue", i)
		}
	}
	if c := cap(q.buf); c > 4*maxLive {
		t.Errorf("backing array grew to %d slots for at most %d live entries", c, maxLive)
	}
	live := map[*Pending]bool{}
	for _, p := range want {
		live[p] = true
	}
	for i, p := range q.buf[:cap(q.buf)] {
		if p != nil && !live[p] {
			t.Errorf("slot %d still references a dequeued request", i)
		}
	}
}

// The pacer sleeps only for pending work: an engine event, or a keeper
// epoch boundary whose window saw arrivals. With neither it arms no timer
// and the actor waits on its mailbox alone, so an idle node never wakes.
func TestPacerSleepsOnlyForPendingWork(t *testing.T) {
	clk := newFakeClock()
	kCfg := keeperConfig()
	k, err := keeper.New(kCfg, forcedModel(t, len(kCfg.Strategies), 1))
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, testConfig(clk), k)
	defer s.Drain()
	a := s.act
	// SimNow is a mailbox round trip: after it the actor touches nothing
	// until the next message, so its pacing state can be read here.
	wake := func() (time.Duration, bool) {
		s.SimNow()
		return a.nextWake()
	}
	if d, ok := wake(); ok {
		t.Fatalf("idle actor sleeps %v, want no timer", d)
	}
	c, err := submit(s, writeReq(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wake(); !ok {
		t.Fatal("a request in flight armed no timer")
	}
	clk.Advance(10 * time.Millisecond)
	s.SimNow()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.wait(ctx); err != nil {
		t.Fatal(err)
	}
	// The device is idle, but the window holds an arrival: sleep until the
	// epoch boundary (Accel 1: 50 ms of sim time is 50 ms of wall time).
	if d, ok := wake(); !ok || d != 40*time.Millisecond {
		t.Fatalf("after the completion the actor sleeps %v (armed %v), want 40ms to the epoch", d, ok)
	}
	clk.Advance(45 * time.Millisecond)
	if d, ok := wake(); ok {
		t.Fatalf("after the epoch the actor sleeps %v, want no timer", d)
	}
	if n := a.ctrl.SwitchCount(); n != 1 {
		t.Fatalf("%d switches, want the one epoch", n)
	}
}
