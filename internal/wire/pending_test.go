package wire

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/trace"
)

// TestPendingTableMatchesMap drives the table and a map with the same
// registrations and out-of-order removals, including seqs that are not in
// flight (answered twice, long answered, never sent): every take must
// return what the map holds.
func TestPendingTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab pendingTable
	ref := map[uint64]*call{}
	var inflight []uint64
	next := uint64(1)
	for step := 0; step < 200000; step++ {
		switch r := rng.Intn(10); {
		case r < 5 && len(inflight) < 300:
			cl := &call{seq: next}
			tab.put(next, cl)
			ref[next] = cl
			inflight = append(inflight, next)
			next++
		case r < 9 && len(inflight) > 0:
			k := rng.Intn(len(inflight))
			seq := inflight[k]
			inflight[k] = inflight[len(inflight)-1]
			inflight = inflight[:len(inflight)-1]
			if got := tab.take(seq); got != ref[seq] {
				t.Fatalf("step %d: take(%d) = %p, want %p", step, seq, got, ref[seq])
			}
			delete(ref, seq)
		default:
			// Not in flight: already answered, or past the newest seq sent.
			seq := uint64(rng.Int63n(int64(next) + 50))
			if _, ok := ref[seq]; ok {
				continue
			}
			if got := tab.take(seq); got != nil {
				t.Fatalf("step %d: take(%d) of a seq not in flight = %p", step, seq, got)
			}
		}
		if tab.n != len(ref) {
			t.Fatalf("step %d: table holds %d calls, want %d", step, tab.n, len(ref))
		}
	}
	seen := 0
	tab.each(func(cl *call) {
		if ref[cl.seq] != cl {
			t.Fatalf("each visited seq %d, not in flight", cl.seq)
		}
		seen++
	})
	if seen != len(ref) {
		t.Fatalf("each visited %d calls, want %d", seen, len(ref))
	}
}

// TestPendingTableBound: one call left unanswered while 100 000 others
// complete keeps the table at the size the calls in flight need. A table
// indexed by seq distance would grow with every completion behind it.
func TestPendingTableBound(t *testing.T) {
	const peak = 64 // the stuck call plus a window of 63
	var tab pendingTable
	stuck := &call{seq: 1}
	tab.put(1, stuck)
	var window []uint64
	next := uint64(2)
	for done := 0; done < 100000; {
		for len(window) < peak-1 {
			tab.put(next, &call{seq: next})
			window = append(window, next)
			next++
		}
		// Answer from the middle of the window, so replies arrive out of
		// order and probe runs form around the stuck call's slot.
		k := len(window) / 2
		if cl := tab.take(window[k]); cl == nil || cl.seq != window[k] {
			t.Fatalf("take(%d) = %v", window[k], cl)
		}
		window = append(window[:k], window[k+1:]...)
		done++
	}
	if c := len(tab.slots); c > 2*peak {
		t.Fatalf("table holds %d slots after 100000 completions past one stuck call, want <= %d (2 x %d in flight)",
			c, 2*peak, peak)
	}
	if cl := tab.take(1); cl != stuck {
		t.Fatalf("stuck call lost: take(1) = %v", cl)
	}
}

// peer is a scripted wire listener: the test reads the client's request
// frames off it and writes whatever reply frames it likes.
type peer struct {
	conn net.Conn
	sc   *bufio.Scanner
}

// dialPeer starts a call on a fresh client so the client dials, and
// returns the client and the listener's side of its connection.
func dialPeer(t *testing.T, obs Observer) (*Client, *peer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c := NewClient(ln.Addr().String(), 1)
	t.Cleanup(c.Close)
	if err := c.Start(peerReq(0), 0, obs); err != nil {
		t.Fatal(err)
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return c, &peer{conn: conn, sc: bufio.NewScanner(conn)}
}

func peerReq(tag int) serve.Request {
	return serve.Request{Tenant: 0, Op: trace.Read, Offset: int64(tag) * 4096, Size: 4096}
}

// read returns the seq of the next request frame and the tag it carries in
// its offset.
func (p *peer) read(t *testing.T) (seq uint64, tag int) {
	t.Helper()
	if !p.sc.Scan() {
		t.Fatalf("peer: no request frame: %v", p.sc.Err())
	}
	seq, req, err := ParseRequest(p.sc.Bytes())
	if err != nil {
		t.Fatalf("peer: %v", err)
	}
	return seq, int(req.Offset / 4096)
}

func (p *peer) write(t *testing.T, frames string) {
	t.Helper()
	if _, err := p.conn.Write([]byte(frames)); err != nil {
		t.Fatalf("peer: %v", err)
	}
}

// outcome is one Done as an observer saw it.
type outcome struct {
	tag   uint64
	latNS int64
	err   error
}

// recordObs keeps every Done in arrival order and signals each on ch.
type recordObs struct {
	mu  sync.Mutex
	got []outcome
	ch  chan struct{}
}

func newRecordObs() *recordObs { return &recordObs{ch: make(chan struct{}, 1024)} }

func (o *recordObs) Done(tag uint64, latNS, _ int64, _ string, err error) {
	o.mu.Lock()
	o.got = append(o.got, outcome{tag, latNS, err})
	o.mu.Unlock()
	o.ch <- struct{}{}
}

// wait blocks for n more outcomes.
func (o *recordObs) wait(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-o.ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("waited for %d outcomes, got %d", n, i)
		}
	}
}

func (o *recordObs) outcomes() []outcome {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]outcome(nil), o.got...)
}

// TestClientOutOfOrderReplies: replies answered in an order unrelated to
// the requests' reach the calls their seqs name.
func TestClientOutOfOrderReplies(t *testing.T) {
	const n = 100
	obs := newRecordObs()
	c, p := dialPeer(t, obs)
	for tag := 1; tag < n; tag++ {
		if err := c.Start(peerReq(tag), uint64(tag), obs); err != nil {
			t.Fatal(err)
		}
	}
	seqOf := make([]uint64, n)
	for i := 0; i < n; i++ {
		seq, tag := p.read(t)
		seqOf[tag] = seq
	}
	var frames []byte
	for _, tag := range rand.New(rand.NewSource(2)).Perm(n) {
		frames = AppendOK(frames, seqOf[tag], int64(1000+tag), 0)
	}
	p.write(t, string(frames))
	obs.wait(t, n)
	for _, o := range obs.outcomes() {
		if o.err != nil || o.latNS != int64(1000+o.tag) {
			t.Fatalf("call %d got latency %d err %v, want %d", o.tag, o.latNS, o.err, 1000+o.tag)
		}
	}
}

// TestClientIgnoresUnknownSeqs: a reply for a seq that is not in flight —
// answered already, answered long ago, or never sent — reaches no call.
func TestClientIgnoresUnknownSeqs(t *testing.T) {
	obs := newRecordObs()
	c, p := dialPeer(t, obs)
	if err := c.Start(peerReq(1), 1, obs); err != nil {
		t.Fatal(err)
	}
	s0, _ := p.read(t)
	s1, _ := p.read(t)
	p.write(t, fmt.Sprintf("%d ok 10 0\n%d ok 11 0\n%d ok 12 0\n", s0, s0, s1+1000))
	obs.wait(t, 1)
	p.write(t, fmt.Sprintf("%d ok 13 0\n", s1))
	obs.wait(t, 1)
	if err := c.Start(peerReq(2), 2, obs); err != nil {
		t.Fatal(err)
	}
	s2, _ := p.read(t)
	// The stale and duplicate replies come first: frames are read in order,
	// so once call 2's own reply is delivered, any stray delivery would be
	// on record.
	p.write(t, fmt.Sprintf("%d rej upstream\n%d ok 14 0\n%d ok 15 0\n", s0, s1, s2))
	obs.wait(t, 1)
	want := []outcome{{0, 10, nil}, {1, 13, nil}, {2, 15, nil}}
	got := obs.outcomes()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("outcomes %v, want %v", got, want)
	}
}

// TestClientConnDeathFailsPendingOnce: when the connection dies, every call
// still pending fails exactly once, and a call answered before the death is
// not failed again.
func TestClientConnDeathFailsPendingOnce(t *testing.T) {
	const n = 50
	obs := newRecordObs()
	c, p := dialPeer(t, obs)
	for tag := 1; tag < n; tag++ {
		if err := c.Start(peerReq(tag), uint64(tag), obs); err != nil {
			t.Fatal(err)
		}
	}
	var frames []byte
	for i := 0; i < n; i++ {
		if seq, tag := p.read(t); tag%3 == 0 {
			frames = AppendOK(frames, seq, 7, 0)
		}
	}
	p.write(t, string(frames))
	answered := (n + 2) / 3
	obs.wait(t, answered)
	p.conn.Close()
	obs.wait(t, n-answered)
	c.Close() // sweeps nothing more: the connection is already gone
	select {
	case <-obs.ch:
		t.Fatal("a call was delivered twice")
	case <-time.After(50 * time.Millisecond):
	}
	count := make([]int, n)
	for _, o := range obs.outcomes() {
		count[o.tag]++
		if (o.tag%3 == 0) != (o.err == nil) {
			t.Fatalf("call %d: err %v; answered calls succeed, the rest fail", o.tag, o.err)
		}
	}
	for tag, k := range count {
		if k != 1 {
			t.Fatalf("call %d delivered %d times, want once", tag, k)
		}
	}
}
