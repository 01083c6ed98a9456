package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/trace"
)

func TestRequestFrameRoundTrip(t *testing.T) {
	cases := []serve.Request{
		{Tenant: 0, Op: trace.Read, Offset: 0, Size: 4096},
		{Tenant: 3, Op: trace.Write, Offset: 1 << 30, Size: 128 << 10},
		{Tenant: 1, Op: trace.Read, Offset: 512, Size: 512, Key: 987654321},
	}
	var buf []byte
	for i, want := range cases {
		buf = AppendRequest(buf[:0], uint64(i+1), want)
		if buf[len(buf)-1] != '\n' {
			t.Fatalf("frame %q not newline-terminated", buf)
		}
		seq, got, err := ParseRequest(buf[:len(buf)-1])
		if err != nil {
			t.Fatalf("parse %q: %v", buf, err)
		}
		if seq != uint64(i+1) || got != want {
			t.Fatalf("round trip %q: seq %d req %+v, want seq %d req %+v", buf, seq, got, i+1, want)
		}
	}
}

func TestParseRequestErrors(t *testing.T) {
	// No usable seq: seq 0 tells the listener to hang up.
	for _, line := range []string{"", "x 0 R 0 4096", "0 0 R 0 4096", "-1 0 R 0 4096"} {
		if seq, _, err := ParseRequest([]byte(line)); err == nil || seq != 0 {
			t.Fatalf("ParseRequest(%q) = seq %d err %v, want seq 0 and error", line, seq, err)
		}
	}
	// Seq parses, tail is garbage: listener replies "rej invalid" in band.
	if seq, _, err := ParseRequest([]byte("7 0 X 0 4096")); err == nil || seq != 7 {
		t.Fatalf("bad op: seq %d err %v, want seq 7 and error", seq, err)
	}
}

func TestReplyFrameRoundTrip(t *testing.T) {
	buf := AppendOK(nil, 42, 123456, 789000)
	rep, err := ParseReply(buf[:len(buf)-1])
	if err != nil {
		t.Fatalf("parse ok reply: %v", err)
	}
	if !rep.OK || rep.Seq != 42 || rep.LatencyNS != 123456 || rep.SimNS != 789000 {
		t.Fatalf("ok reply round trip: %+v", rep)
	}
	buf = AppendRej(buf[:0], 7, "queue_full")
	rep, err = ParseReply(buf[:len(buf)-1])
	if err != nil {
		t.Fatalf("parse rej reply: %v", err)
	}
	if rep.OK || rep.Seq != 7 || string(rep.Reason) != "queue_full" {
		t.Fatalf("rej reply round trip: %+v", rep)
	}
	for _, line := range []string{"", "1 ok", "1 ok 5", "0 ok 1 2", "1 huh 3 4", "1 ok x 2"} {
		if _, err := ParseReply([]byte(line)); err == nil {
			t.Fatalf("ParseReply(%q) succeeded, want error", line)
		}
	}
}

// TestReasonStringInterns: every token of serve's vocabulary survives a rej
// frame and comes back interned (the client retains it past its read
// buffer); an unknown token passes through as text.
func TestReasonStringInterns(t *testing.T) {
	for _, tok := range []string{"queue_full", "migrating", "draining", "timeout", "invalid", "upstream", "weird"} {
		buf := AppendRej(nil, 3, tok)
		rep, err := ParseReply(buf[:len(buf)-1])
		if err != nil {
			t.Fatalf("parse %q: %v", buf, err)
		}
		if got := serve.ReasonString(rep.Reason); got != tok {
			t.Fatalf("ReasonString(%q) = %q", tok, got)
		}
		if n := testing.AllocsPerRun(100, func() { serve.ReasonString(rep.Reason) }); tok != "weird" && n != 0 {
			t.Errorf("interning %q allocates %.0f times", tok, n)
		}
	}
}

// TestReasonErrorRoundTrip: an error a backend refuses with crosses the wire
// as its token and maps back onto the same error, so a proxy preserves error
// identity end to end.
func TestReasonErrorRoundTrip(t *testing.T) {
	for _, err := range []error{serve.ErrQueueFull, serve.ErrTenantMigrating, serve.ErrDraining, serve.ErrUpstream} {
		buf := AppendRej(nil, 9, serve.RejectReason(err))
		rep, perr := ParseReply(buf[:len(buf)-1])
		if perr != nil {
			t.Fatalf("parse %q: %v", buf, perr)
		}
		if back := serve.ReasonError(serve.ReasonString(rep.Reason)); !errors.Is(back, err) {
			t.Fatalf("%v crossed the wire as %q and came back %v", err, rep.Reason, back)
		}
	}
	if serve.ReasonError("") != nil {
		t.Fatal("empty reason should map to nil")
	}
	if got := serve.RejectReason(serve.ReasonError("invalid")); got != "invalid" {
		t.Fatalf("invalid round trip = %q", got)
	}
}

// echoBackend completes every request inline with a latency derived from its
// offset, so tests can check reply matching.
type echoBackend struct{}

func (echoBackend) SubmitTo(req serve.Request, c serve.Completion) error {
	if req.Tenant == 99 {
		return serve.ErrQueueFull // synchronous rejection path
	}
	c.Complete(serve.Response{Latency: 1000, At: 77}, nil)
	return nil
}

// stallBackend parks completions until released, to keep calls in flight.
type stallBackend struct {
	mu     sync.Mutex
	parked []serve.Completion
}

func (b *stallBackend) SubmitTo(req serve.Request, c serve.Completion) error {
	b.mu.Lock()
	b.parked = append(b.parked, c)
	b.mu.Unlock()
	return nil
}

// result is one call's outcome as its observer saw it.
type result struct {
	latNS, simNS int64
	reason       string
	err          error
}

// waitObs blocks a test on the client's one delivery path: Start the call,
// then receive what Done hands over. One waitObs carries one call at a time,
// so a goroutine reuses its own and a steady loop allocates nothing.
type waitObs chan result

func (o waitObs) Done(_ uint64, latNS, simNS int64, reason string, err error) {
	o <- result{latNS, simNS, reason, err}
}

func (o waitObs) call(c *Client, req serve.Request) result {
	if err := c.Start(req, 0, o); err != nil {
		return result{err: err}
	}
	return <-o
}

// doCall issues one request and blocks for its outcome.
func doCall(c *Client, req serve.Request) result { return make(waitObs, 1).call(c, req) }

func startWire(t *testing.T, b Backend) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(b)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func TestClientServerPipelined(t *testing.T) {
	_, addr := startWire(t, echoBackend{})
	c := NewClient(addr, 2)
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			obs := make(waitObs, 1)
			for i := 0; i < 50; i++ {
				r := obs.call(c, serve.Request{Tenant: g % 4, Op: trace.Read, Offset: int64(i) * 4096, Size: 4096})
				if r.err != nil || r.reason != "" || r.latNS != 1000 || r.simNS != 77 {
					errs <- fmt.Errorf("goroutine %d call %d: %+v", g, i, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientSynchronousReject(t *testing.T) {
	_, addr := startWire(t, echoBackend{})
	c := NewClient(addr, 1)
	defer c.Close()
	if r := doCall(c, serve.Request{Tenant: 99, Op: trace.Read, Size: 4096}); r.err != nil || r.reason != "queue_full" {
		t.Fatalf("%+v, want queue_full rejection", r)
	}
}

func TestServerDeathFailsInflight(t *testing.T) {
	srv, addr := startWire(t, &stallBackend{})
	c := NewClient(addr, 1)
	defer c.Close()

	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- doCall(c, serve.Request{Tenant: 0, Op: trace.Read, Size: 4096}).err
		}()
	}
	// Give the calls a moment to get in flight, then kill the server.
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("in-flight call on a dead server returned success")
		}
	}
	// The client redials and works again once a server is back.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv2 := NewServer(echoBackend{})
	go srv2.Serve(ln)
	defer srv2.Close()
	if r := doCall(c, serve.Request{Tenant: 0, Op: trace.Read, Size: 4096}); r.err != nil || r.reason != "" {
		t.Fatalf("post-redial call: %+v", r)
	}
}

// gatherObs collects async outcomes keyed by tag.
type gatherObs struct {
	mu    sync.Mutex
	lats  map[uint64]int64
	errs  int
	wg    sync.WaitGroup
	count int
}

func (g *gatherObs) Done(tag uint64, latencyNS, simNS int64, reason string, err error) {
	g.mu.Lock()
	if err != nil || reason != "" {
		g.errs++
	} else {
		g.lats[tag] = latencyNS
	}
	g.count++
	g.mu.Unlock()
	g.wg.Done()
}

func TestClientObserverPath(t *testing.T) {
	_, addr := startWire(t, echoBackend{})
	c := NewClient(addr, 1)
	defer c.Close()
	g := &gatherObs{lats: make(map[uint64]int64)}
	const n = 200
	g.wg.Add(n)
	for i := 0; i < n; i++ {
		if err := c.Start(serve.Request{Tenant: i % 4, Op: trace.Write, Offset: int64(i) * 4096, Size: 4096}, uint64(i), g); err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
	}
	g.wg.Wait()
	if g.errs != 0 || len(g.lats) != n {
		t.Fatalf("observer gather: %d errs, %d oks, want 0/%d", g.errs, len(g.lats), n)
	}
}

// TestWireAgainstNode drives a real serve.Node through the wire listener.
func TestWireAgainstNode(t *testing.T) {
	node := newTestNode(t)
	_, addr := startWire(t, node)
	c := NewClient(addr, 2)
	defer c.Close()
	for i := 0; i < 32; i++ {
		r := doCall(c, serve.Request{Tenant: i % 2, Op: trace.Read, Offset: int64(i) * 4096, Size: 4096})
		if r.err != nil || r.reason != "" {
			t.Fatalf("call %d: %+v", i, r)
		}
		if r.latNS <= 0 || r.simNS <= 0 {
			t.Fatalf("call %d: lat=%d at=%d, want positive", i, r.latNS, r.simNS)
		}
	}
	// Invalid tenant travels back as an in-band rejection.
	if r := doCall(c, serve.Request{Tenant: 77, Op: trace.Read, Size: 4096}); r.err != nil || r.reason != "invalid" {
		t.Fatalf("invalid tenant: %+v", r)
	}
}

func TestOutboxCoalesces(t *testing.T) {
	o := newOutbox()
	var w countingWriter
	done := make(chan struct{})
	go func() { o.run(&w); close(done) }()
	// Stuff many frames in faster than the writer drains 1-byte-at-a-time —
	// the count of Write calls must come out well under the frame count.
	const n = 1000
	for i := 0; i < n; i++ {
		if !o.append([]byte("x\n")) {
			t.Fatal("append on open outbox failed")
		}
	}
	o.close()
	<-done
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.bytes != 2*n {
		t.Fatalf("wrote %d bytes, want %d", w.bytes, 2*n)
	}
	if w.calls >= n {
		t.Fatalf("no coalescing: %d Write calls for %d frames", w.calls, n)
	}
	if o.append([]byte("y\n")) {
		t.Fatal("append on closed outbox succeeded")
	}
}

type countingWriter struct {
	mu    sync.Mutex
	calls int
	bytes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.calls++
	w.bytes += len(p)
	w.mu.Unlock()
	time.Sleep(100 * time.Microsecond) // slow sink so appends pile up
	return len(p), nil
}

func newTestNode(t *testing.T) *serve.Node {
	t.Helper()
	cfg := serve.Config{
		Device: nand.EvalConfig(),
		Accel:  50,
	}
	n, err := serve.NewNode(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(func() { n.Drain() })
	return n
}
