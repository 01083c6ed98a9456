package serve

import (
	"math/rand"
	"testing"
	"time"

	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/trace"
)

// arrivalTag records, at submission index i, the arrival instant the shard
// admitted the request at (completion time minus latency) — what a plain
// []trace.Record log of the same dispatches would have stamped it with.
// Completions run on the shard goroutine; the test reads arrivals only after
// Drain has joined it.
type arrivalTag struct {
	arrivals []sim.Time
	i        int
}

func (a arrivalTag) Complete(resp Response, err error) {
	a.arrivals[a.i] = -1
	if err == nil {
		a.arrivals[a.i] = resp.At - resp.Latency
	}
}

// submitLogged submits reqs in order, one fake-clock tick apart, and returns
// where their arrival instants will land.
func submitLogged(t *testing.T, s *Server, clk *fakeClock, reqs []Request) []sim.Time {
	t.Helper()
	arrivals := make([]sim.Time, len(reqs))
	for i, req := range reqs {
		clk.Advance(time.Millisecond)
		if err := s.SubmitTo(req, arrivalTag{arrivals, i}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if i%32 == 31 {
			s.SimNow() // mailbox barrier: keep occupancy under the bound
		}
	}
	return arrivals
}

// plainLog is the reference: a plain append of every dispatch at its arrival.
func plainLog(t *testing.T, reqs []Request, arrivals []sim.Time) []trace.Record {
	t.Helper()
	var ref []trace.Record
	for i, at := range arrivals {
		if at < 0 {
			t.Fatalf("request %d failed", i)
		}
		ref = append(ref, reqs[i].Record(at))
	}
	return ref
}

// TestChunkedLogEqualsPlainAppend: across the chunk boundaries, the log
// DrainTenant materialises equals a plain []trace.Record append of the same
// dispatches — on the node that served them, and on a handoff target that
// re-logs them as replays and then logs live traffic on top.
func TestChunkedLogEqualsPlainAppend(t *testing.T) {
	for _, n := range []int{0, 1, logChunk - 1, logChunk, logChunk + 1, 3*logChunk + 7} {
		rng := rand.New(rand.NewSource(int64(n)))
		reqs := make([]Request, n)
		for i := range reqs {
			pages := 1 + rng.Intn(3)
			if i == n/2 {
				pages = maxRequestBytes / page // the largest size the log must hold
			}
			reqs[i] = Request{
				Tenant: 1, Op: trace.Op(rng.Intn(2)),
				Offset: int64(rng.Intn(1024)) * page, Size: pages * page,
			}
		}
		clk := newFakeClock()
		source := testServer(t, testConfig(clk), nil)
		arrivals := submitLogged(t, source, clk, reqs)
		td, err := source.DrainTenant(1)
		if err != nil {
			t.Fatal(err)
		}
		source.Drain()
		want := plainLog(t, reqs, arrivals)
		if len(td.Records) != len(want) {
			t.Fatalf("n=%d: source log has %d records, want %d", n, len(td.Records), len(want))
		}
		for i := range want {
			if td.Records[i] != want[i] {
				t.Fatalf("n=%d: source record %d = %+v, want %+v", n, i, td.Records[i], want[i])
			}
		}

		target := testServer(t, testConfig(clk), nil)
		if done, err := target.ReplayTenant(1, td.Records); err != nil || done != n {
			t.Fatalf("n=%d: replayed %d, err %v", n, done, err)
		}
		live := []Request{writeReq(1, 7), readReq(1, 7), writeReq(1, 8), readReq(1, 8), readReq(1, 0)}
		liveArrivals := submitLogged(t, target, clk, live)
		td2, err := target.DrainTenant(1)
		if err != nil {
			t.Fatal(err)
		}
		target.Drain()
		want = append(want, plainLog(t, live, liveArrivals)...)
		if len(td2.Records) != len(want) {
			t.Fatalf("n=%d: target log has %d records, want %d", n, len(td2.Records), len(want))
		}
		var prev sim.Time
		for i, got := range td2.Records {
			if got.Time < prev {
				t.Fatalf("n=%d: target record %d at %v before its predecessor at %v", n, i, got.Time, prev)
			}
			prev = got.Time
			if i < n {
				// A replayed record is re-stamped with its replay instant.
				got.Time = want[i].Time
			}
			if got != want[i] {
				t.Fatalf("n=%d: target record %d = %+v, want %+v", n, i, td2.Records[i], want[i])
			}
		}
	}
}
