package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/wire"
)

// manualClock is a hand-advanced wall clock: on an un-started node, simulated
// time moves only when the test moves it.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

type nopCompletion struct{}

func (nopCompletion) Complete(serve.Response, error) {}

// dialFrames opens a raw connection to a wire listener, the way a client
// that is not wire.Client (nc, another language) would.
func dialFrames(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewReader(conn)
}

// readReplies reads n reply frames and returns them in seq order, each ok
// reply cut to "<seq> ok <latency_ns>": its sim_ns is the completion
// instant, which two passes over one node cannot share.
func readReplies(conn net.Conn, rd *bufio.Reader, n int) ([]string, error) {
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer conn.SetReadDeadline(time.Time{})
	type frame struct {
		seq  uint64
		text string
	}
	frames := make([]frame, 0, n)
	for len(frames) < n {
		line, err := rd.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("after %d of %d replies: %w", len(frames), n, err)
		}
		line = strings.TrimSuffix(line, "\n")
		rep, err := wire.ParseReply([]byte(line))
		if err != nil {
			return nil, err
		}
		if rep.OK {
			line = fmt.Sprintf("%d ok %d", rep.Seq, rep.LatencyNS)
		}
		frames = append(frames, frame{rep.Seq, line})
	}
	slices.SortFunc(frames, func(a, b frame) int { return int(a.seq) - int(b.seq) })
	out := make([]string, n)
	for i, f := range frames {
		out[i] = f.text
	}
	return out, nil
}

// TestNodeAndRouterWireAnswerIdentically is the differential test of the one
// request front: each case writes the same frames to a node's wire listener
// and to a router's wire listener over that node, and requires the two sets
// of replies to be identical, to be what the case says, and the node to have
// admitted exactly what the case says. The node is un-started on a manual
// clock, so the admitted requests of a case all arrive at one simulated
// instant on an idle device and complete when the test advances the clock:
// the ok replies' latencies are deterministic, and equal on both passes
// because they are reads. The router forwards over one connection, so a
// case's frames reach the node in the order they were written.
func TestNodeAndRouterWireAnswerIdentically(t *testing.T) {
	clk := &manualClock{t: time.Unix(1000, 0)}
	s, err := serve.New(serve.Config{
		Device: nand.EvalConfig(), Options: ssd.DefaultOptions(),
		Now: clk.Now, QueueDepth: 2, QueueLen: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	control := httptest.NewServer(s.Handler(0))
	defer control.Close()
	nodeWire := startWireListener(t, s.Node)
	r, err := NewRouter(Config{
		Nodes: []string{control.URL}, WireNodes: []string{nodeWire}, WireConns: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	targets := []struct{ name, addr string }{
		{"node", nodeWire},
		{"router", startWireListener(t, r.WireBackend())},
	}

	// counters reads what the node admitted and refused as full so far, and
	// how many requests its device goroutine holds, queued or in the device. A wire
	// listener admits a read's frames before it hands them to the node, so
	// only held says the admitted requests are there for the clock to move.
	counters := func() (admitted, full, held uint64) {
		for _, ts := range s.Status().Tenants {
			admitted += ts.Admitted[0] + ts.Admitted[1]
			full += ts.QueueFull
			held += uint64(ts.Queued + ts.InFlight)
		}
		return admitted, full, held
	}
	flush := func() {
		clk.Advance(time.Second)
		s.SimNow()
	}

	// A frame over the bound closes its own connection, and only it: the
	// listener, a second connection and the router's upstream serve on. The
	// frame is a valid request padded with separators, so only the bound
	// refuses it. First, so the node is still admitting.
	for _, tg := range targets {
		bad, badRd := dialFrames(t, tg.addr)
		good, goodRd := dialFrames(t, tg.addr)
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			bad.Write([]byte("9 0 R 0 16384" + strings.Repeat(" ", wire.MaxFrameBytes) + "\n"))
		}()
		bad.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := badRd.ReadString('\n'); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s: connection after an over-long frame: read err %v, want it closed", tg.name, err)
		}
		bad.Close() // unblocks the writer if the listener kept reading
		<-wrote
		fmt.Fprintf(good, "1 0 R 0 16384\n")
		deadline := time.Now().Add(10 * time.Second)
		for _, _, held := counters(); held == 0 && time.Now().Before(deadline); _, _, held = counters() {
			time.Sleep(time.Millisecond)
		}
		flush()
		if got, err := readReplies(good, goodRd, 1); err != nil || !strings.HasPrefix(got[0], "1 ok ") {
			t.Errorf("%s: second connection after the first was closed: %q %v", tg.name, got, err)
		}
	}

	cases := []struct {
		name   string
		frames string
		setup  func() // runs once, before both passes
		admits int    // requests the node admits per pass
		full   int    // requests the node refuses as queue_full per pass
		want   []string
	}{
		{name: "ok, empty, undecodable and out-of-range tails",
			frames: "1 0 R 0 16384\n\n2 1 R 16384 16384\n3 not a line\n\n4 2 R 32768 16384\n5 9 R 0 16384\n6 0 R 1099511627776 16384\n",
			admits: 3,
			want:   []string{"1 ok ", "2 ok ", "3 rej invalid", "4 ok ", "5 rej invalid", "6 rej invalid"}},
		{name: "overflowing one tenant's queue",
			frames: "1 3 R 0 16384\n2 3 R 16384 16384\n3 3 R 32768 16384\n4 3 R 49152 16384\n",
			admits: 3, full: 1,
			want: []string{"1 ok ", "2 ok ", "3 ok ", "4 rej queue_full"}},
		// The node parks tenant 2 itself, so the router's gate is open: it
		// retries the node's "migrating" refusal, then relays it as is.
		{name: "a migrating tenant's request",
			frames: "1 0 R 0 16384\n2 2 R 0 16384\n",
			setup: func() {
				if _, err := s.DrainTenant(2); err != nil {
					t.Fatal(err)
				}
			},
			admits: 1,
			want:   []string{"1 ok ", "2 rej migrating"}},
		{name: "a draining node",
			frames: "1 0 R 0 16384\n2 1 W 0 16384\n",
			setup:  func() { s.Drain() },
			want:   []string{"1 rej draining", "2 rej draining"}},
	}
	for _, tc := range cases {
		if tc.setup != nil {
			tc.setup()
		}
		var got [2][]string
		for i, tg := range targets {
			conn, rd := dialFrames(t, tg.addr)
			admitted0, full0, _ := counters()
			if _, err := conn.Write([]byte(tc.frames)); err != nil {
				t.Fatal(err)
			}
			if tc.admits > 0 {
				// Admitted requests complete only when the clock moves, and
				// it must not move before everything the case submits is in
				// or refused: a completion could free the slot the queue_full
				// frame is supposed to find taken.
				deadline := time.Now().Add(10 * time.Second)
				for {
					admitted, full, held := counters()
					if int(admitted-admitted0) == tc.admits && int(full-full0) == tc.full && int(held) == tc.admits {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("%s via %s: node admitted %v, refused %v as full and holds %v, want %d, %d and %d",
							tc.name, tg.name, admitted-admitted0, full-full0, held, tc.admits, tc.full, tc.admits)
					}
					time.Sleep(time.Millisecond)
				}
				flush()
			}
			replies, err := readReplies(conn, rd, len(tc.want))
			if err != nil {
				t.Fatalf("%s via %s: %v", tc.name, tg.name, err)
			}
			got[i] = replies
			if admitted, full, _ := counters(); int(admitted-admitted0) != tc.admits || int(full-full0) != tc.full {
				t.Errorf("%s via %s: node admitted %v and refused %v as full, want %d and %d",
					tc.name, tg.name, admitted-admitted0, full-full0, tc.admits, tc.full)
			}
		}
		flush() // whatever setup left in the device
		if !slices.Equal(got[0], got[1]) {
			t.Errorf("%s: listeners differ\n  node:   %q\n  router: %q", tc.name, got[0], got[1])
		}
		for i, want := range tc.want {
			if !strings.HasPrefix(got[0][i], want) || (!strings.HasSuffix(want, " ") && got[0][i] != want) {
				t.Errorf("%s: reply %d = %q, want %q", tc.name, i, got[0][i], want)
			}
		}
	}
}
