package fleet

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
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

// reply is everything of an HTTP answer a client can tell fronts apart by.
type reply struct {
	status      int
	body        string
	retryAfter  string
	contentType string
}

type nopCompletion struct{}

func (nopCompletion) Complete(serve.Response, error) {}

// TestNodeAndRouterFrontsAnswerIdentically is the differential test of the
// one HTTP front: each case posts the same body to a node's front and to a
// router's front over that node and requires the two answers to be
// byte-identical — status, body, Retry-After, Content-Type — and the node to
// have admitted exactly what the case says. The node is un-started on a
// manual clock, so the admitted requests of a case all arrive at one
// simulated instant on an idle device and complete when the test advances the
// clock: the ok lines' latencies are deterministic, and equal on both passes
// because they are reads. (/io successes are left to TestHTTPEndToEnd and
// TestRouterProxiesIO: their sim_ns is the completion instant, which two
// passes over one node cannot share.)
func TestNodeAndRouterFrontsAnswerIdentically(t *testing.T) {
	clk := &manualClock{t: time.Unix(1000, 0)}
	s, err := serve.New(serve.Config{
		Device: nand.EvalConfig(), Options: ssd.DefaultOptions(),
		Now: clk.Now, QueueDepth: 2, QueueLen: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	nodeFront := httptest.NewServer(s.Handler(30 * time.Second))
	defer nodeFront.Close()
	r, err := NewRouter(Config{
		Nodes: []string{nodeFront.URL}, WireNodes: []string{startWireListener(t, s.Node)},
		WireConns: 1, // one connection: a batch's lines reach the node in line order
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	routerFront := httptest.NewServer(r.Handler())
	defer routerFront.Close()

	// counters reads what the node admitted and refused as full so far.
	counters := func() (admitted, full float64) {
		var buf strings.Builder
		s.WriteMetrics(&buf)
		for _, smp := range promSamples(buf.String(), "ssdkeeper_admitted_total") {
			admitted += smp.value
		}
		for _, smp := range promSamples(buf.String(), "ssdkeeper_rejected_total") {
			if smp.labels["reason"] == "queue_full" {
				full += smp.value
			}
		}
		return admitted, full
	}
	flush := func() {
		clk.Advance(time.Second)
		s.SimNow()
	}
	fillTenant3 := func() {
		for i := int64(0); i < 3; i++ {
			req := serve.Request{Tenant: 3, Op: trace.Read, Offset: i * 16384, Size: 16384}
			if err := s.SubmitTo(req, nopCompletion{}); err != nil {
				t.Fatalf("filling tenant 3: %v", err)
			}
		}
	}

	const io1 = `{"tenant":3,"op":"read","offset":0,"size":16384}`
	cases := []struct {
		name   string
		get    bool // GET instead of POST
		path   string
		body   string
		setup  func() // runs once, before both posts
		admits int    // requests the node admits per post
		full   int    // requests the node refuses as queue_full per post
		status int
		want   string   // the body both fronts must answer; "" leaves it to the comparison
		lines  []string // or what each reply line must start with (latencies vary)
	}{
		// First, so that "still 0" is literal: a batch refused with 400 has
		// executed none of its lines.
		{name: "batch one line over the cap", path: "/io/batch",
			body:   strings.Repeat("0 R 0 16384\n", 65537),
			status: 400, want: "batch exceeds 65536 lines\n"},
		{name: "batch with an over-long line", path: "/io/batch",
			body:   strings.Repeat("x", 4<<20+1),
			status: 400, want: "batch line exceeds 4194304 bytes\n"},
		{name: "batch body over the cap", path: "/io/batch",
			body:   "0 R 0 16384\n" + strings.Repeat("x", 4<<20),
			status: 400, want: "http: request body too large\n"},
		{name: "ok, empty, undecodable and out-of-range lines", path: "/io/batch",
			body:   "0 R 0 16384\n\n1 R 16384 16384\nnot a line\n\n2 R 32768 16384\n9 R 0 16384\n",
			admits: 3, status: 200, lines: []string{"ok ", "ok ", "rej invalid", "ok ", "rej invalid"}},
		{name: "batch overflowing one tenant's queue", path: "/io/batch",
			body:   "3 R 0 16384\n3 R 16384 16384\n3 R 32768 16384\n3 R 49152 16384\n",
			admits: 3, full: 1, status: 200, lines: []string{"ok ", "ok ", "ok ", "rej queue_full"}},
		{name: "/io on a full tenant", path: "/io", body: io1, setup: fillTenant3,
			full: 1, status: 429, want: "serve: tenant queue full\n"},
		{name: "/io undecodable", path: "/io", body: "{nope", status: 400},
		{name: "/io unknown field", path: "/io", body: `{"tenant":0,"op":"read","offset":0,"size":16384,"sz":1}`, status: 400},
		{name: "GET /io", get: true, path: "/io", status: 405, want: "POST only\n"},
		{name: "GET /io/batch", get: true, path: "/io/batch", status: 405, want: "POST only\n"},
		// The node parks tenant 2 itself, so the router's gate is open: it
		// retries the node's "migrating" rejection, then surfaces it as is.
		{name: "/io for a migrating tenant", path: "/io", body: `{"tenant":2,"op":"read","offset":0,"size":16384}`,
			setup: func() {
				if _, err := s.DrainTenant(2); err != nil {
					t.Fatal(err)
				}
			},
			status: 503, want: "serve: tenant migrating\n"},
		{name: "/io with a 2 MiB body", path: "/io", // over the router's old 1 MiB cap
			body:   `{"tenant":2,"op":"read","offset":0,"size":16384}` + strings.Repeat(" ", 2<<20),
			status: 503, want: "serve: tenant migrating\n"},
		{name: "/io body over the cap", path: "/io",
			body:   `{"tenant":2,"op":"read","offset":0,"size":16384}` + strings.Repeat(" ", 4<<20),
			status: 400, want: "http: request body too large\n"},
		{name: "batch with a migrating tenant's line", path: "/io/batch",
			body: "0 R 0 16384\n2 R 0 16384\n", admits: 1, status: 200, lines: []string{"ok ", "rej migrating"}},
		{name: "/io while draining", path: "/io", body: io1, setup: func() { s.Drain() },
			status: 503, want: "serve: draining\n"},
		{name: "batch while draining", path: "/io/batch", body: "0 R 0 16384\n1 W 0 16384\n",
			status: 200, want: "rej draining\nrej draining\n"},
	}
	for _, tc := range cases {
		if tc.setup != nil {
			tc.setup()
		}
		var got [2]reply
		for i, base := range []string{nodeFront.URL, routerFront.URL} {
			admitted0, full0 := counters()
			done := make(chan reply, 1)
			go func() {
				var resp *http.Response
				var err error
				if tc.get {
					resp, err = http.Get(base + tc.path)
				} else {
					resp, err = http.Post(base+tc.path, "text/plain", strings.NewReader(tc.body))
				}
				if err != nil {
					t.Errorf("%s: %v", tc.name, err)
					done <- reply{}
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				done <- reply{resp.StatusCode, string(body), resp.Header.Get("Retry-After"), resp.Header.Get("Content-Type")}
			}()
			if tc.admits > 0 {
				// Admitted requests complete only when the clock moves, and
				// it must not move before everything the case submits is in
				// or refused: a completion could free the slot the queue_full
				// line is supposed to find taken.
				deadline := time.Now().Add(10 * time.Second)
				for {
					admitted, full := counters()
					if int(admitted-admitted0) == tc.admits && int(full-full0) == tc.full {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("%s: node admitted %v and refused %v as full, want %d and %d",
							tc.name, admitted-admitted0, full-full0, tc.admits, tc.full)
					}
					time.Sleep(time.Millisecond)
				}
				flush()
			}
			got[i] = <-done
			if admitted, full := counters(); int(admitted-admitted0) != tc.admits || int(full-full0) != tc.full {
				t.Errorf("%s via %s: node admitted %v and refused %v as full, want %d and %d",
					tc.name, []string{"node", "router"}[i], admitted-admitted0, full-full0, tc.admits, tc.full)
			}
		}
		flush() // whatever setup left in the device
		node, router := got[0], got[1]
		if node != router {
			t.Errorf("%s: fronts differ\n  node:   %+v\n  router: %+v", tc.name, node, router)
		}
		if node.status != tc.status || (tc.want != "" && node.body != tc.want) {
			t.Errorf("%s: node answered %d %q, want %d %q", tc.name, node.status, node.body, tc.status, tc.want)
		}
		if retry := node.status == 429 || node.status == 503; (node.retryAfter != "") != retry {
			t.Errorf("%s: status %d with Retry-After %q", tc.name, node.status, node.retryAfter)
		}
		if tc.lines != nil {
			lines := strings.Split(strings.TrimSuffix(node.body, "\n"), "\n")
			if len(lines) != len(tc.lines) {
				t.Fatalf("%s: %d reply lines, want %d: %q", tc.name, len(lines), len(tc.lines), node.body)
			}
			for i, want := range tc.lines {
				if !strings.HasPrefix(lines[i], want) {
					t.Errorf("%s: line %d = %q, want prefix %q", tc.name, i, lines[i], want)
				}
			}
		}
	}
}
