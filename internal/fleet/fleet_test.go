package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
	"ssdkeeper/internal/wire"
)

// testNode is one in-process fleet member: a serve node plus its HTTP
// (control plane) and wire (data plane) bindings, exactly what a real
// deployment runs per process.
type testNode struct {
	srv  *serve.Server
	ts   *httptest.Server
	wire string
}

// startWireListener serves the wire protocol for a backend on an ephemeral
// port and returns the dial address.
func startWireListener(t testing.TB, b wire.Backend) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.NewServer(b)
	go ws.Serve(ln)
	t.Cleanup(func() { ws.Close() })
	return ln.Addr().String()
}

func startNode(t *testing.T) *testNode {
	t.Helper()
	n := newTestNode(t, serve.Config{
		Device:  nand.EvalConfig(),
		Options: ssd.DefaultOptions(),
		Accel:   50, // completions land within a pacer tick
	}, nil)
	n.srv.Start()
	return n
}

// newTestNode binds an un-started node to HTTP and wire; wrap, when set,
// sits in front of the node's HTTP surface.
func newTestNode(t *testing.T, cfg serve.Config, wrap func(http.Handler) http.Handler) *testNode {
	t.Helper()
	s, err := serve.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler(10 * time.Second)
	if wrap != nil {
		h = wrap(h)
	}
	n := &testNode{srv: s, ts: httptest.NewServer(h)}
	t.Cleanup(func() {
		n.srv.Drain()
		n.ts.Close()
	})
	n.wire = startWireListener(t, s.Node)
	return n
}

func startFleet(t *testing.T, nodes int) ([]*testNode, *Router) {
	t.Helper()
	members := make([]*testNode, nodes)
	addrs := make([]string, nodes)
	waddrs := make([]string, nodes)
	for i := range members {
		members[i] = startNode(t)
		addrs[i], waddrs[i] = members[i].ts.URL, members[i].wire
	}
	r, err := NewRouter(Config{
		Nodes: addrs, WireNodes: waddrs,
		GateWait: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return members, r
}

// startClient serves the router on a wire listener, its one request front,
// and returns a client of it.
func startClient(t *testing.T, r *Router) *wire.Client {
	t.Helper()
	wc := wire.NewClient(startWireListener(t, r.WireBackend()), 4)
	t.Cleanup(wc.Close)
	return wc
}

// wireReply is what a wire call's observer was handed.
type wireReply struct {
	latencyNS int64
	reason    string
	err       error
}

type wireObs chan wireReply

func (o wireObs) Done(_ uint64, latencyNS, _ int64, reason string, err error) {
	o <- wireReply{latencyNS, reason, err}
}

// wireCall issues one request through the wire client's one delivery path,
// Start and its observer, and blocks for the reply. No deadline of its own:
// the router answers every call, "upstream" when its owner's connection died.
func wireCall(c *wire.Client, req serve.Request) wireReply {
	o := make(wireObs, 1)
	if err := c.Start(req, 0, o); err != nil {
		return wireReply{err: err}
	}
	return <-o
}

// readVia sends one read through a wire client and classifies the answer:
// reason is "" for ok and the rejection token otherwise; err is an outright
// failure, "rej upstream" included.
func readVia(c *wire.Client, tenant int, pageNo int64) (reason string, err error) {
	r := wireCall(c, serve.Request{Tenant: tenant, Op: trace.Read, Offset: pageNo * 16384, Size: 16384})
	if r.err == nil && r.reason == "upstream" {
		r.err = fmt.Errorf("rej upstream")
	}
	return r.reason, r.err
}

// TestRouterProxiesIO: reads and writes for every tenant, pipelined
// through the router's wire listener with replies in completion order,
// reach their owner nodes and answer ok with a simulated latency.
func TestRouterProxiesIO(t *testing.T) {
	_, router := startFleet(t, 2)
	wc := startClient(t, router)

	o := make(wireObs, 8)
	for i := 0; i < cap(o); i++ {
		req := serve.Request{Tenant: i % 4, Op: trace.Read, Offset: int64(i) * 16384, Size: 16384}
		if i%2 == 1 {
			req.Op = trace.Write
		}
		if err := wc.Start(req, uint64(i), o); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < cap(o); i++ {
		if r := <-o; r.err != nil || r.reason != "" || r.latencyNS <= 0 {
			t.Errorf("reply %+v, want ok with a latency", r)
		}
	}
}

// TestRouterStatusAndMetrics: the control surface reflects placement and
// migrations.
func TestRouterStatusAndMetrics(t *testing.T) {
	nodes, router := startFleet(t, 2)
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/fleet/status")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Nodes       []string          `json:"nodes"`
		RingVersion uint64            `json:"ring_version"`
		Tenants     map[string]string `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Nodes) != 2 || len(st.Tenants) != 4 {
		t.Fatalf("status: %+v", st)
	}

	// Migrate tenant 0 to whichever node does not own it, via the admin
	// endpoint, then confirm the table flipped and metrics counted it.
	owner := router.Owner(0)
	target := nodes[0].ts.URL
	if target == owner {
		target = nodes[1].ts.URL
	}
	mresp, err := http.Post(fmt.Sprintf("%s/fleet/migrate?tenant=0&to=%s", front.URL, target), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/fleet/migrate = %d: %s", mresp.StatusCode, mbody)
	}
	if got := router.Owner(0); got != target {
		t.Errorf("owner after migrate = %q, want %q", got, target)
	}
	var buf strings.Builder
	router.WriteMetrics(&buf)
	for _, want := range []string{
		"ssdkeeper_fleet_nodes 2",
		`ssdkeeper_migrations_total{outcome="completed"} 1`,
		`ssdkeeper_migrations_total{outcome="aborted"} 0`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("fleet metrics missing %q", want)
		}
	}
	// Post-migration traffic flows to the new owner.
	if reason, err := readVia(startClient(t, router), 0, 1); reason != "" || err != nil {
		t.Errorf("post-migration read: reason %q err %v", reason, err)
	}
}

// TestMigrationUnderLoad is the fleet's zero-loss/zero-duplication
// guarantee under -race: clients on the router's wire listener hammer one
// tenant while that tenant is migrated between nodes (twice — there and
// back). No request may fail — the queue gate hides the handoff — and
// afterwards the client success count must equal the sum of client
// completions across all nodes: nothing lost, nothing double-counted.
func TestMigrationUnderLoad(t *testing.T) {
	nodes, router := startFleet(t, 3)
	wc := startClient(t, router)

	const (
		tenant  = 1
		clients = 9
		perEach = 40
	)
	var ok, rejected, failed atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perEach; i++ {
				reason, err := readVia(wc, tenant, int64(c*perEach+i)%256)
				switch {
				case err != nil:
					failed.Add(1)
					t.Errorf("client %d req %d: %v", c, i, err)
				case reason == "":
					ok.Add(1)
				default:
					rejected.Add(1)
				}
			}
		}(c)
	}

	// Two live migrations while the load runs: owner → other node → back.
	src := router.Owner(tenant)
	var others []string
	for _, n := range nodes {
		if n.ts.URL != src {
			others = append(others, n.ts.URL)
		}
	}
	time.Sleep(50 * time.Millisecond) // let load build up
	if err := router.Migrate(tenant, others[0]); err != nil {
		t.Errorf("migrate 1: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := router.Migrate(tenant, others[1]); err != nil {
		t.Errorf("migrate 2: %v", err)
	}
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d requests failed outright", failed.Load())
	}
	var completed uint64
	for _, n := range nodes {
		completed += n.srv.TenantCompleted(tenant)
	}
	total := ok.Load() + rejected.Load()
	if total != clients*perEach {
		t.Fatalf("answered %d of %d requests", total, clients*perEach)
	}
	if completed != ok.Load() {
		t.Fatalf("fleet completed %d requests for tenant %d, clients saw %d oks: lost %d / duplicated %d",
			completed, tenant, ok.Load(),
			int64(ok.Load())-int64(completed), int64(completed)-int64(ok.Load()))
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded")
	}
}

// TestGateWaitTimeout: a request gated by a migration that never finishes
// must come back as a migrating rejection after GateWait, not block forever.
func TestGateWaitTimeout(t *testing.T) {
	n := startNode(t)
	const gateWait = 150 * time.Millisecond
	r, err := NewRouter(Config{
		Nodes: []string{n.ts.URL}, WireNodes: []string{n.wire},
		GateWait: gateWait,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	wc := startClient(t, r)

	gate := make(chan struct{})
	r.publish(func(tab *routeTable) { tab.migrating[0] = gate })
	start := time.Now()
	if reason, err := readVia(wc, 0, 0); err != nil || reason != "migrating" {
		t.Fatalf("gated request = reason %q err %v, want migrating", reason, err)
	}
	if e := time.Since(start); e < gateWait-10*time.Millisecond {
		t.Errorf("answered in %v, before the %v gate wait expired", e, gateWait)
	}

	// Release the gate: requests flow again.
	r.publish(func(tab *routeTable) { delete(tab.migrating, 0) })
	close(gate)
	if reason, err := readVia(wc, 0, 0); err != nil || reason != "" {
		t.Fatalf("ungated request = reason %q err %v", reason, err)
	}
}

// migratingOnce is a node that answers its first request "migrating" — it
// gated the tenant between the router's table load and the forward — and
// every later one ok.
type migratingOnce struct{ n atomic.Int64 }

func (b *migratingOnce) SubmitTo(req serve.Request, c serve.Completion) error {
	if b.n.Add(1) == 1 {
		return serve.ErrTenantMigrating
	}
	c.Complete(serve.Response{Latency: 1000, At: 1}, nil)
	return nil
}

// TestMigratingRetryEveryFront pins the router's one forwarding path on its
// one front, the wire listener: a node's "migrating" rejection is waited out
// and retried, and the request counts once in proxied_total however many
// attempts it took.
func TestMigratingRetryEveryFront(t *testing.T) {
	up := httptest.NewServer(http.NewServeMux()) // ring/control plane only
	defer up.Close()
	t.Run("queue/wire", func(t *testing.T) {
		r, err := NewRouter(Config{
			Nodes:     []string{up.URL},
			WireNodes: []string{startWireListener(t, &migratingOnce{})},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if reason, err := readVia(startClient(t, r), 0, 0); err != nil || reason != "" {
			t.Fatalf("reason %q err %v, want the retry to succeed", reason, err)
		}
		var buf strings.Builder
		r.WriteMetrics(&buf)
		if !strings.Contains(buf.String(), "ssdkeeper_fleet_proxied_total 1\n") {
			t.Errorf("one client request did not count once:\n%s", buf.String())
		}
	})
}

// TestNewRouterRequiresWire: wire is the only data plane, so a fleet with a
// node the router cannot reach over wire is refused at construction.
func TestNewRouterRequiresWire(t *testing.T) {
	nodes := []string{"http://a", "http://b"}
	for _, wn := range [][]string{nil, {"a:1"}, {"a:1", ""}} {
		if _, err := NewRouter(Config{Nodes: nodes, WireNodes: wn}); err == nil {
			t.Errorf("NewRouter accepted WireNodes %q for 2 nodes", wn)
		}
	}
}

// strandBackend completes the first limit requests inline and strands the
// rest without answering.
type strandBackend struct {
	limit int64
	n     atomic.Int64
}

func (b *strandBackend) SubmitTo(req serve.Request, c serve.Completion) error {
	if b.n.Add(1) <= b.limit {
		c.Complete(serve.Response{Latency: 1000, At: 1}, nil)
	}
	return nil
}

// TestBatchWireUpstreamDies: an owner that answers part of a pipelined chunk
// and strands the rest yields the partial "ok" replies; when it then dies,
// the connection sweep answers the remainder "rej upstream" promptly, and a
// request sent after the death is refused the same way — never a hang.
func TestBatchWireUpstreamDies(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.NewServer(&strandBackend{limit: 4})
	go ws.Serve(ln)
	defer ws.Close()
	up := httptest.NewServer(http.NewServeMux()) // ring/control plane only
	defer up.Close()

	r, err := NewRouter(Config{
		Nodes: []string{up.URL}, WireNodes: []string{ln.Addr().String()},
		WireConns: 1, // single conn: submissions reach the backend in order
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	wc := startClient(t, r)

	o := make(wireObs, 8)
	for i := 0; i < cap(o); i++ {
		if err := wc.Start(serve.Request{Tenant: 1, Op: trace.Read, Size: 16384}, uint64(i), o); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if rep := <-o; rep != (wireReply{latencyNS: 1000}) {
			t.Errorf("answered reply %d = %+v, want ok 1000", i, rep)
		}
	}
	select {
	case rep := <-o:
		t.Fatalf("a stranded request answered %+v before its upstream died", rep)
	case <-time.After(50 * time.Millisecond):
	}

	ws.Close()
	deadline := time.After(5 * time.Second)
	for i := 4; i < cap(o); i++ {
		select {
		case rep := <-o:
			if rep.reason != "upstream" || rep.err != nil {
				t.Errorf("stranded reply %d = %+v, want rej upstream", i, rep)
			}
		case <-deadline:
			t.Fatalf("%d stranded requests still unanswered after the upstream died", cap(o)-i)
		}
	}
	if rep := wireCall(wc, serve.Request{Tenant: 1, Op: trace.Read, Size: 16384}); rep.reason != "upstream" || rep.err != nil {
		t.Errorf("request after the upstream died = %+v, want rej upstream", rep)
	}
}

// TestMembershipProbe: one Poll reads each node's GET /status. A live
// node reports readiness and per-tenant completions; a node whose die has
// failed reports itself degraded and not ready, with its health score; a
// node that answers a 500 or a body that is not a status record is an Err
// and not ready.
func TestMembershipProbe(t *testing.T) {
	n := startNode(t)

	// Complete one request so the status has a nonzero completion.
	wc := wire.NewClient(n.wire, 1)
	defer wc.Close()
	if reason, err := readVia(wc, 2, 0); reason != "" || err != nil {
		t.Fatalf("read: reason %q err %v", reason, err)
	}

	// An un-started node on a manual clock: the probe's own read advances
	// it past the die failure.
	clk := &manualClock{t: time.Unix(1000, 0)}
	cfg := serve.Config{
		Device: nand.EvalConfig(), Options: ssd.DefaultOptions(), Now: clk.Now,
		DegradedScore: 0.95, // one dead die of 16 scores 0.9375
	}
	cfg.Options.FaultPlan = &nand.FaultPlan{Seed: 7, Events: []nand.FaultEvent{
		{Kind: nand.FaultDieFail, At: sim.Millisecond, Channel: 0, Die: 0},
	}}
	sick := newTestNode(t, cfg, nil)
	clk.Advance(100 * time.Millisecond)

	listen := func(h http.HandlerFunc) string {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	garbage := listen(func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ssdkeeper_up 1") })
	failing := listen(func(w http.ResponseWriter, r *http.Request) { http.Error(w, "boom", http.StatusInternalServerError) })

	var requests atomic.Int64
	counted := listen(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		n.ts.Config.Handler.ServeHTTP(w, r)
	})

	m := NewMembership([]string{counted, sick.ts.URL, garbage, failing}, 5*time.Second)
	m.Poll()
	snap := m.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d nodes", len(snap))
	}
	if live := snap[0]; !live.Ready || live.Err != nil || live.HealthScore != 1 || live.Degraded {
		t.Errorf("live node status %+v", live)
	} else if got := live.Tenants[2].CompletedTotal(); got != 1 {
		t.Errorf("completed[2] = %d, want 1 (%+v)", got, live.Tenants)
	}
	if got := requests.Load(); got != 1 {
		t.Errorf("one sweep made %d requests to the node, want 1", got)
	}
	if st := snap[1]; st.Err != nil || !st.Degraded || st.Ready || st.HealthScore >= 1 {
		t.Errorf("node with a dead die: %+v, want degraded, not ready, health below 1", st)
	}
	for _, st := range snap[2:] {
		if st.Err == nil || st.Ready {
			t.Errorf("%s: err %v ready %v, want an error and not ready", st.Addr, st.Err, st.Ready)
		}
	}
}
