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

// front is one of the router's three client-facing fronts reduced to "send
// one read and classify the answer": reason is "" for ok and the rejection
// token otherwise; err is an outright failure.
type front struct {
	name string
	do   func(tenant int, pageNo int64) (reason string, err error)
}

// startFronts serves the router on HTTP and on wire and returns the three
// fronts over them: JSON /io, line-protocol /io/batch, and the wire listener.
func startFronts(t *testing.T, r *Router) []front {
	t.Helper()
	hs := httptest.NewServer(r.Handler())
	t.Cleanup(hs.Close)
	wc := wire.NewClient(startWireListener(t, r.WireBackend()), 4)
	t.Cleanup(wc.Close)
	client := &http.Client{Timeout: 30 * time.Second}
	return []front{
		{"io", func(tenant int, pageNo int64) (string, error) {
			code, body := postIO(t, client, hs.URL, tenant, pageNo)
			switch {
			case code == http.StatusOK:
				return "", nil
			case code == http.StatusServiceUnavailable && strings.Contains(body, "migrating"):
				return "migrating", nil
			case code == http.StatusTooManyRequests:
				return "queue_full", nil
			}
			return "", fmt.Errorf("/io = %d: %s", code, body)
		}},
		{"batch", func(tenant int, pageNo int64) (string, error) {
			line := fmt.Sprintf("%d R %d 16384\n", tenant, pageNo*16384)
			resp, err := client.Post(hs.URL+"/io/batch", "text/plain", strings.NewReader(line))
			if err != nil {
				return "", err
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			f := strings.Fields(string(data))
			switch {
			case resp.StatusCode == http.StatusOK && len(f) == 2 && f[0] == "ok":
				return "", nil
			case resp.StatusCode == http.StatusOK && len(f) == 2 && f[0] == "rej" && f[1] != "upstream":
				return f[1], nil
			}
			return "", fmt.Errorf("/io/batch = %d: %q", resp.StatusCode, data)
		}},
		{"wire", func(tenant int, pageNo int64) (string, error) {
			reason, err := wireCall(wc, serve.Request{
				Tenant: tenant, Op: trace.Read, Offset: pageNo * 16384, Size: 16384,
			})
			if err == nil && reason == "upstream" {
				err = fmt.Errorf("rej upstream")
			}
			return reason, err
		}},
	}
}

// wireReply is what a wire call's observer was handed.
type wireReply struct {
	reason string
	err    error
}

type wireObs chan wireReply

func (o wireObs) Done(_ uint64, _, _ int64, reason string, err error) { o <- wireReply{reason, err} }

// wireCall issues one request through the wire client's one delivery path,
// Start and its observer, and blocks for the reply. No deadline of its own:
// the router answers every call, "upstream" when no owner did in time.
func wireCall(c *wire.Client, req serve.Request) (reason string, err error) {
	o := make(wireObs, 1)
	if err := c.Start(req, 0, o); err != nil {
		return "", err
	}
	r := <-o
	return r.reason, r.err
}

func postIO(t *testing.T, client *http.Client, base string, tenant int, pageNo int64) (int, string) {
	t.Helper()
	body := fmt.Sprintf(`{"tenant":%d,"op":"read","offset":%d,"size":16384}`, tenant, pageNo*16384)
	resp, err := client.Post(base+"/io", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /io: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

// TestRouterProxiesIO: requests reach the owner node and answer 200; the
// batch path splits by owner and reassembles line order.
func TestRouterProxiesIO(t *testing.T) {
	_, router := startFleet(t, 2)
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	for tenant := 0; tenant < 4; tenant++ {
		code, body := postIO(t, http.DefaultClient, front.URL, tenant, int64(tenant))
		if code != http.StatusOK {
			t.Fatalf("tenant %d: /io = %d: %s", tenant, code, body)
		}
		var jr struct {
			LatencyNS int64 `json:"latency_ns"`
		}
		if err := json.Unmarshal([]byte(body), &jr); err != nil || jr.LatencyNS <= 0 {
			t.Fatalf("tenant %d: bad response %q", tenant, body)
		}
	}

	// A batch mixing all tenants — owners differ per line, order must hold.
	batch := "0 R 0 16384\n1 W 16384 16384\n2 R 32768 16384\n3 W 49152 16384\n"
	resp, err := http.Post(front.URL+"/io/batch", "text/plain", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 {
		t.Fatalf("batch answered %d lines, want 4: %q", len(lines), data)
	}
	for i, ln := range lines {
		if !strings.HasPrefix(ln, "ok ") {
			t.Errorf("line %d = %q, want ok", i, ln)
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
	if code, body := postIO(t, http.DefaultClient, front.URL, 0, 1); code != http.StatusOK {
		t.Errorf("post-migration /io = %d: %s", code, body)
	}
}

// TestMigrationUnderLoad is the fleet's zero-loss/zero-duplication
// guarantee under -race: clients spread over the router's three fronts
// (/io, /io/batch, wire) hammer one tenant while that tenant is migrated
// between nodes (twice — there and back). No request may fail — the queue
// gate hides the handoff — and afterwards the client success count must
// equal the sum of client completions across all nodes: nothing lost,
// nothing double-counted, whichever front carried the request.
func TestMigrationUnderLoad(t *testing.T) {
	nodes, router := startFleet(t, 3)
	fronts := startFronts(t, router)

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
			f := fronts[c%len(fronts)]
			for i := 0; i < perEach; i++ {
				reason, err := f.do(tenant, int64(c*perEach+i)%256)
				switch {
				case err != nil:
					failed.Add(1)
					t.Errorf("%s client %d req %d: %v", f.name, c, i, err)
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
// must come back as a migrating rejection after GateWait — on every front —
// not block forever.
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
	fronts := startFronts(t, r)

	gate := make(chan struct{})
	r.publish(func(tab *routeTable) { tab.migrating[0] = gate })
	for _, f := range fronts {
		start := time.Now()
		if reason, err := f.do(0, 0); err != nil || reason != "migrating" {
			t.Fatalf("%s: gated request = reason %q err %v, want migrating", f.name, reason, err)
		}
		if e := time.Since(start); e < gateWait-10*time.Millisecond {
			t.Errorf("%s answered in %v, before the %v gate wait expired", f.name, e, gateWait)
		}
	}

	// Release the gate: every front flows again.
	r.publish(func(tab *routeTable) { delete(tab.migrating, 0) })
	close(gate)
	for _, f := range fronts {
		if reason, err := f.do(0, 0); err != nil || reason != "" {
			t.Fatalf("%s: ungated request = reason %q err %v", f.name, reason, err)
		}
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

// TestMigratingRetryEveryFront pins that the router has one forwarding path:
// whichever front a request arrives on, a node's "migrating" rejection is
// waited out and retried, and the request counts once in proxied_total
// however many attempts it took. (/io/batch used to render "rej migrating",
// and /io counted proxied only after a reply.)
func TestMigratingRetryEveryFront(t *testing.T) {
	up := httptest.NewServer(http.NewServeMux()) // ring/control plane only
	defer up.Close()
	for i, name := range []string{"io", "batch", "wire"} {
		t.Run("queue/"+name, func(t *testing.T) {
			r, err := NewRouter(Config{
				Nodes:     []string{up.URL},
				WireNodes: []string{startWireListener(t, &migratingOnce{})},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			f := startFronts(t, r)[i]
			if reason, err := f.do(0, 0); err != nil || reason != "" {
				t.Fatalf("reason %q err %v, want the retry to succeed", reason, err)
			}
			var buf strings.Builder
			r.WriteMetrics(&buf)
			if !strings.Contains(buf.String(), "ssdkeeper_fleet_proxied_total 1\n") {
				t.Errorf("one client request did not count once:\n%s", buf.String())
			}
		})
	}
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
// rest without answering; with kill set it tears the server down instead,
// so in-flight requests die with their connection.
type strandBackend struct {
	limit int64
	n     atomic.Int64
	kill  atomic.Bool
	ws    *wire.Server
}

func (b *strandBackend) SubmitTo(req serve.Request, c serve.Completion) error {
	if b.kill.Load() {
		go b.ws.Close() // not inline: Close waits for this read loop
		return nil
	}
	if b.n.Add(1) <= b.limit {
		c.Complete(serve.Response{Latency: 1000, At: 1}, nil)
	}
	return nil
}

// TestBatchWireUpstreamDies: an owner that answers part of a batch and
// strands or drops the rest must yield partial "ok" replies with the
// remainder "rej upstream" — bounded by the request timeout, never a hang.
func TestBatchWireUpstreamDies(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bk := &strandBackend{limit: 4}
	ws := wire.NewServer(bk)
	bk.ws = ws
	go ws.Serve(ln)
	defer ws.Close()
	up := httptest.NewServer(http.NewServeMux()) // ring/control plane only
	defer up.Close()

	r, err := NewRouter(Config{
		Nodes: []string{up.URL}, WireNodes: []string{ln.Addr().String()},
		WireConns:  1, // single conn: submissions reach the backend in line order
		ReqTimeout: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	postBatch := func() []string {
		t.Helper()
		resp, err := http.Post(front.URL+"/io/batch", "text/plain",
			strings.NewReader(strings.Repeat("1 R 0 16384\n", 8)))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 8 {
			t.Fatalf("batch answered %d lines, want 8: %q", len(lines), data)
		}
		return lines
	}

	start := time.Now()
	lines := postBatch()
	elapsed := time.Since(start)
	for i, ln := range lines {
		want := "ok 1000"
		if i >= 4 {
			want = "rej upstream"
		}
		if ln != want {
			t.Errorf("line %d = %q, want %q", i, ln, want)
		}
	}
	if elapsed < 300*time.Millisecond {
		t.Errorf("stranded batch answered in %v, before the %v deadline", elapsed, 400*time.Millisecond)
	}
	if elapsed > 5*time.Second {
		t.Errorf("stranded batch took %v", elapsed)
	}
	// /io rides the same front: a request nobody answers is "upstream" there
	// too, as a 502.
	if code, body := postIO(t, http.DefaultClient, front.URL, 1, 0); code != http.StatusBadGateway {
		t.Errorf("stranded /io = %d %q, want 502", code, body)
	}

	// Now the upstream dies under the batch: the connection sweep must fail
	// every line promptly — no ok, no hang.
	bk.kill.Store(true)
	for i, ln := range postBatch() {
		if ln != "rej upstream" {
			t.Errorf("post-death line %d = %q, want rej upstream", i, ln)
		}
	}
}

// TestMembershipProbe: the prober reads readiness and per-tenant load from
// a live node's real endpoints.
func TestMembershipProbe(t *testing.T) {
	n := startNode(t)

	// Complete one request so the metrics have a nonzero completion.
	code, body := postIO(t, http.DefaultClient, n.ts.URL, 2, 0)
	if code != http.StatusOK {
		t.Fatalf("/io = %d: %s", code, body)
	}

	m := NewMembership([]string{n.ts.URL}, 5*time.Second)
	m.Poll()
	snap := m.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d nodes", len(snap))
	}
	st := snap[0]
	if !st.Ready || st.Err != nil {
		t.Fatalf("node status %+v", st)
	}
	if st.CompletedByTenant[2] != 1 {
		t.Errorf("completed[2] = %d, want 1 (%v)", st.CompletedByTenant[2], st.CompletedByTenant)
	}
}

func TestPromSamples(t *testing.T) {
	text := strings.Join([]string{
		`# HELP ssdkeeper_completed_total x`,
		`# TYPE ssdkeeper_completed_total counter`,
		`ssdkeeper_completed_total{tenant="0",op="read"} 3`,
		`ssdkeeper_completed_total{tenant="0",op="write"} 2`,
		`ssdkeeper_completed_total{tenant="1",op="read"} 7`,
		`ssdkeeper_completed_totals_bogus{tenant="9"} 99`,
		`ssdkeeper_latency_seconds{tenant="1",op="read",quantile="0.99"} 0.004`,
		`ssdkeeper_latency_seconds_count{tenant="1",op="read"} 7`,
		`ssdkeeper_up 1`,
	}, "\n")
	got := promSamples(text, "ssdkeeper_completed_total")
	if len(got) != 3 {
		t.Fatalf("parsed %d samples, want 3: %+v", len(got), got)
	}
	var t0 float64
	for _, s := range got {
		if s.labels["tenant"] == "0" {
			t0 += s.value
		}
	}
	if t0 != 5 {
		t.Errorf("tenant 0 total = %v, want 5", t0)
	}
	if up := promSamples(text, "ssdkeeper_up"); len(up) != 1 || up[0].value != 1 {
		t.Errorf("ssdkeeper_up parse: %+v", up)
	}
	lat := promSamples(text, "ssdkeeper_latency_seconds")
	if len(lat) != 1 || lat[0].labels["quantile"] != "0.99" {
		t.Errorf("latency parse picked up suffix series: %+v", lat)
	}
}
