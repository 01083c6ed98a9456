package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/ssd"
)

// TestHTTPEndToEnd exercises the control plane with a real wall clock and
// the pacer running: requests submitted through the node core show up in
// /metrics, /healthz and /readyz answer ok, and a drain flips both to 503.
// (I/O reaches a node only over wire; what a wire listener answers is
// fleet's TestNodeAndRouterWireAnswerIdentically.)
func TestHTTPEndToEnd(t *testing.T) {
	cfg := Config{
		Device:  nand.EvalConfig(),
		Options: ssd.DefaultOptions(),
		Accel:   50, // device time runs fast so completions land within a tick
	}
	s, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler(0))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, req := range []Request{readReq(0, 0), writeReq(1, 1), readReq(2, 2), readReq(0, 3)} {
		resp, err := submitWait(ctx, s, req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if resp.Latency <= 0 {
			t.Errorf("%+v: latency %v, want > 0", req, resp.Latency)
		}
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		if code, body := get(path); code != http.StatusOK {
			t.Errorf("GET %s = %d %q", path, code, body)
		}
	}
	_, metrics := get("/metrics")
	for _, want := range []string{
		"ssdkeeper_up 1",
		`ssdkeeper_admitted_total{tenant="0",op="read"} 2`,
		`ssdkeeper_completed_total{tenant="1",op="write"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Drain flips the surface: liveness and readiness both 503.
	s.Drain()
	for _, path := range []string{"/healthz", "/readyz"} {
		if code, body := get(path); code != http.StatusServiceUnavailable || body != "draining\n" {
			t.Errorf("drained GET %s = %d %q, want 503 \"draining\"", path, code, body)
		}
	}
}

// TestHTTPPprofExposed checks the profiling surface is wired in.
func TestHTTPPprofExposed(t *testing.T) {
	clk := newFakeClock()
	s, err := New(testConfig(clk), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler(time.Second))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline = %d", resp.StatusCode)
	}
}

// TestStatusEndpoint: GET /status serves Node.Status as JSON, and /readyz
// answers from the same record: per-tenant counts after completions, the
// parked-tenant and draining reasons, and after Drain the frozen counts.
func TestStatusEndpoint(t *testing.T) {
	clk := newFakeClock()
	s := testServer(t, testConfig(clk), nil)
	ts := httptest.NewServer(s.Handler(0))
	defer ts.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	status := func() Status {
		t.Helper()
		code, body := get("/status")
		var st Status
		if err := json.Unmarshal([]byte(body), &st); code != http.StatusOK || err != nil {
			t.Fatalf("GET /status = %d %q (%v)", code, body, err)
		}
		if !reflect.DeepEqual(st, s.Status()) {
			t.Errorf("/status %+v != Node.Status %+v", st, s.Status())
		}
		return st
	}

	var pending []submitted
	for _, req := range []Request{readReq(1, 0), writeReq(1, 1)} {
		c, err := submit(s, req)
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, c)
	}
	clk.Advance(time.Second)
	s.SimNow()
	for _, c := range pending {
		if _, err := c.wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	st := status()
	want := TenantStatus{Admitted: [2]uint64{1, 1}, Completed: [2]uint64{1, 1}}
	if !st.Ready || st.NotReady != "" || st.HealthScore != 1 || st.SimNow <= 0 ||
		len(st.Tenants) != 4 || st.Tenants[1] != want {
		t.Errorf("status %+v, want ready, health 1, tenant 1 %+v", st, want)
	}

	if _, err := s.DrainTenant(2); err != nil {
		t.Fatal(err)
	}
	if st := status(); st.Ready || st.NotReady != "tenant handoff in flight" {
		t.Errorf("with a parked tenant: ready %v %q", st.Ready, st.NotReady)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body != "tenant handoff in flight\n" {
		t.Errorf("/readyz with a parked tenant = %d %q", code, body)
	}
	if err := s.ReleaseTenant(2); err != nil {
		t.Fatal(err)
	}

	s.Drain()
	if st := status(); st.Ready || st.NotReady != "draining" || st.Tenants[1] != want {
		t.Errorf("drained status %+v, want not ready (draining), tenant 1 %+v", st, want)
	}
}
