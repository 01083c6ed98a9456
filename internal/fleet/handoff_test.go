package fleet

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
)

func pausedConfig(clk *manualClock) serve.Config {
	return serve.Config{Device: nand.EvalConfig(), Options: ssd.DefaultOptions(), Now: clk.Now}
}

// loadTenant submits n requests for tenant to a node, one clock millisecond
// apart.
func loadTenant(t *testing.T, s *serve.Server, clk *manualClock, tenant, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		clk.Advance(time.Millisecond)
		req := serve.Request{
			Tenant: tenant, Op: trace.Op(i % 2), Offset: int64(i*7%256) * 16384, Size: 16384,
		}
		if err := s.SubmitTo(req, nopCompletion{}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		s.SimNow() // mailbox barrier: the node admits each before the next
	}
}

// pausedFleet builds two un-started nodes over clk behind a router, and
// returns the source (owner of tenant) and the target.
func pausedFleet(t *testing.T, clk *manualClock, tenant int, wrap func(http.Handler) http.Handler) (src, dst *testNode, r *Router) {
	t.Helper()
	a, b := newTestNode(t, pausedConfig(clk), wrap), newTestNode(t, pausedConfig(clk), wrap)
	r, err := NewRouter(Config{
		Nodes: []string{a.ts.URL, b.ts.URL}, WireNodes: []string{a.wire, b.wire},
		GateWait: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	if r.Owner(tenant) == b.ts.URL {
		a, b = b, a
	}
	return a, b, r
}

// TestMigrateMatchesInProcessHandoff: a migration over HTTP — the drain
// body streamed through the router into the target — leaves the target's
// device exactly where an in-process DrainTenant → ReplayTenant of the same
// log leaves a fresh node built at the same instant.
func TestMigrateMatchesInProcessHandoff(t *testing.T) {
	const tenant, n = 1, 200
	clk := &manualClock{t: time.Unix(1000, 0)}
	src, dst, router := pausedFleet(t, clk, tenant, nil)
	fresh, err := serve.NewNode(pausedConfig(clk), nil)
	if err != nil {
		t.Fatal(err)
	}
	loadTenant(t, src.srv, clk, tenant, n)

	if err := router.Migrate(tenant, dst.ts.URL); err != nil {
		t.Fatal(err)
	}
	// Migrate released the source, whose log is unchanged since the drain.
	td, err := src.srv.DrainTenant(tenant)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := fresh.ReplayTenant(tenant, td.Records); err != nil || done != n {
		t.Fatalf("in-process replay: %d of %d, err %v", done, n, err)
	}
	overHTTP, inProcess := dst.srv.Drain(), fresh.Drain()
	if overHTTP.Requests != n {
		t.Errorf("target dispatched %d requests, want %d", overHTTP.Requests, n)
	}
	if !reflect.DeepEqual(overHTTP, inProcess) {
		t.Errorf("target after Migrate:\n%+v\nfresh node after DrainTenant → ReplayTenant:\n%+v", overHTTP, inProcess)
	}
}

// TestMigrateRollsBackCutDrain: a source that dies during its /tenant/drain
// answer — mid-body, or before a byte of it left — aborts the migration:
// the tenant stays on the source and serves there, the target replays
// nothing, and ssdkeeper_migrations_total{outcome="aborted"} counts it.
func TestMigrateRollsBackCutDrain(t *testing.T) {
	for _, midBody := range []bool{true, false} {
		const tenant, n = 2, 50
		var cut atomic.Bool
		dieMidDrain := func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/tenant/drain" || !cut.Load() {
					h.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				if midBody {
					body := rec.Body.Bytes()
					w.Header().Set("Content-Length", strconv.Itoa(len(body)))
					w.WriteHeader(rec.Code)
					w.Write(body[:len(body)/2])
					w.(http.Flusher).Flush()
				}
				panic(http.ErrAbortHandler)
			})
		}
		clk := &manualClock{t: time.Unix(1000, 0)}
		src, dst, router := pausedFleet(t, clk, tenant, dieMidDrain)
		loadTenant(t, src.srv, clk, tenant, n)

		cut.Store(true)
		if err := router.Migrate(tenant, dst.ts.URL); err == nil {
			t.Fatalf("mid-body %v: migration over a cut drain succeeded", midBody)
		}
		if got := router.Owner(tenant); got != src.ts.URL {
			t.Errorf("mid-body %v: owner after the aborted migration = %s, want the source %s",
				midBody, got, src.ts.URL)
		}
		var m strings.Builder
		router.WriteMetrics(&m)
		for _, want := range []string{
			`ssdkeeper_migrations_total{outcome="aborted"} 1`,
			`ssdkeeper_migrations_total{outcome="completed"} 0`,
		} {
			if !strings.Contains(m.String(), want) {
				t.Errorf("mid-body %v: router metrics missing %q", midBody, want)
			}
		}
		if src.srv.TenantParked(tenant) || dst.srv.TenantParked(tenant) {
			t.Errorf("mid-body %v: parked after rollback: source %v, target %v; want neither",
				midBody, src.srv.TenantParked(tenant), dst.srv.TenantParked(tenant))
		}
		req := serve.Request{Tenant: tenant, Op: trace.Read, Size: 16384}
		if err := src.srv.SubmitTo(req, nopCompletion{}); err != nil {
			t.Errorf("mid-body %v: source refuses the tenant after rollback: %v", midBody, err)
		}
		if res := dst.srv.Drain(); res.Requests != 0 {
			t.Errorf("mid-body %v: target dispatched %d requests from a cut drain, want 0", midBody, res.Requests)
		}
		if res := src.srv.Drain(); res.Requests != n+1 {
			t.Errorf("mid-body %v: source dispatched %d requests, want %d", midBody, res.Requests, n+1)
		}
	}
}
