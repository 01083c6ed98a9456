package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/ssd"
)

// TestHTTPEndToEnd exercises the full wire path with a real wall clock and
// the pacer running: submit over /io, read /metrics and /healthz, then
// drain and watch the surface flip to 503.
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
	ts := httptest.NewServer(s.Handler(10 * time.Second))
	defer ts.Close()

	// One JSON request round trip.
	resp, err := http.Post(ts.URL+"/io", "application/json",
		strings.NewReader(`{"tenant":0,"op":"read","offset":0,"size":16384}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /io = %d: %s", resp.StatusCode, body)
	}
	var jr jsonResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("bad /io response %q: %v", body, err)
	}
	if jr.LatencyNS <= 0 {
		t.Errorf("latency_ns %d, want > 0", jr.LatencyNS)
	}

	// A batch over the line protocol: every line answered in order. (What
	// the front refuses, and how, is fleet's
	// TestNodeAndRouterFrontsAnswerIdentically.)
	batch := "0 R 0 16384\n1 W 16384 16384\n2 R 32768 16384\n"
	resp, err = http.Post(ts.URL+"/io/batch", "text/plain", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 3 {
		t.Fatalf("batch answered %d lines, want 3: %q", len(lines), body)
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, "ok ") {
			t.Errorf("batch line %d = %q, want ok", i, line)
		}
	}

	// Observability surface.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"ssdkeeper_up 1",
		`ssdkeeper_admitted_total{tenant="0",op="read"} 2`,
		`ssdkeeper_completed_total{tenant="1",op="write"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Drain flips the surface: healthz 503, new I/O 503 with Retry-After.
	s.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("drained /healthz = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/io", "application/json",
		strings.NewReader(`{"tenant":0,"op":"read","offset":0,"size":16384}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("drained POST /io = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drained POST /io missing Retry-After")
	}
}

// TestHTTPBackpressure429 pins the overload contract: with a frozen clock
// nothing ever completes, so once a tenant's in-flight and queue bounds
// fill, the next /io answers 429 with a Retry-After hint, and a later drain
// resolves the blocked requests (completion for the dispatched one, 503 for
// the queued one).
func TestHTTPBackpressure429(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.QueueDepth = 1
	cfg.QueueLen = 1
	s, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(30 * time.Second))
	defer ts.Close()

	post := func(pageNo int) (*http.Response, error) {
		return http.Post(ts.URL+"/io", "application/json",
			strings.NewReader(fmt.Sprintf(
				`{"tenant":0,"op":"write","offset":%d,"size":16384}`, pageNo*16384)))
	}

	// Two requests occupy the device slot and the queue slot; their handlers
	// block until the drain below answers them.
	type result struct {
		status int
		err    error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			resp, err := post(i)
			if err != nil {
				results <- result{err: err}
				return
			}
			resp.Body.Close()
			results <- result{status: resp.StatusCode}
		}(i)
	}
	// Wait until both are admitted (visible in the metrics counters).
	deadline := time.Now().Add(5 * time.Second)
	for {
		var buf strings.Builder
		s.WriteMetrics(&buf)
		if strings.Contains(buf.String(), `ssdkeeper_admitted_total{tenant="0",op="write"} 2`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests not admitted in time:\n%s", buf.String())
		}
		time.Sleep(time.Millisecond)
	}

	// The third is over capacity: synchronous 429.
	resp, err := post(2)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload POST /io = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}

	// Drain resolves the two blocked handlers: the dispatched request
	// completes (200), the queued one is rejected (503).
	s.Drain()
	statuses := map[int]int{}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("blocked request failed: %v", r.err)
		}
		statuses[r.status]++
	}
	if statuses[http.StatusOK] != 1 || statuses[http.StatusServiceUnavailable] != 1 {
		t.Errorf("drained statuses = %v, want one 200 and one 503", statuses)
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
