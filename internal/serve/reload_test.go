package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/policy"
)

// tenantsCoveringShards picks one tenant per shard (key 0 routing) so a test
// can deterministically drive every shard's adaptation window.
func tenantsCoveringShards(t *testing.T, tenants, shards int) []int {
	t.Helper()
	byShard := make([]int, shards)
	for i := range byShard {
		byShard[i] = -1
	}
	for tn := 0; tn < tenants; tn++ {
		idx := shardIndex(tn, 0, shards)
		if byShard[idx] == -1 {
			byShard[idx] = tn
		}
	}
	for i, tn := range byShard {
		if tn == -1 {
			t.Skipf("no tenant in [0,%d) routes to shard %d", tenants, i)
		}
	}
	return byShard
}

// sourceReloader is a test stand-in for the daemon's registry-backed
// reloader: "versions" it can serve are pinned providers.
func sourceReloader(src *policy.Source, providers map[string]policy.Provider) Reloader {
	return func(version string) (ReloadStatus, error) {
		prov, ok := providers[version]
		if !ok {
			return ReloadStatus{}, fmt.Errorf("unknown version %q", version)
		}
		prev, err := src.SetActive(prov)
		if err != nil {
			return ReloadStatus{}, err
		}
		return ReloadStatus{Version: prov.Version(), Previous: prev.Version()}, nil
	}
}

// TestReloadSwapsPolicyAcrossShards pins the acceptance criterion: a reload
// on a running sharded server swaps every shard's policy at its next
// adaptation epoch — no drain, no rejected requests, no lost completions —
// and the new version shows up in /metrics.
func TestReloadSwapsPolicyAcrossShards(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.ShardCount = 2
	kCfg := keeperConfig() // Window/AdaptEvery 50ms
	k, err := keeper.New(kCfg, forcedModel(t, len(kCfg.Strategies), 1))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := policy.NewModel("v2", forcedModel(t, len(kCfg.Strategies), 2), kCfg.Strategies)
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, cfg, k)
	defer s.Drain()
	s.SetReloader(sourceReloader(k.Source(), map[string]policy.Provider{"v2": v2}))

	cover := tenantsCoveringShards(t, s.cfg.Tenants, len(s.shards))
	var pending []submitted
	submitAll := func(pageNo int64) {
		for _, tn := range cover {
			p, err := submit(s, writeReq(tn, pageNo))
			if err != nil {
				t.Fatalf("submit rejected during reload window: %v", err)
			}
			pending = append(pending, p)
		}
	}

	// Epoch 1: traffic in [0,50)ms on every shard, boundary at 50ms.
	for i := 0; i < 4; i++ {
		submitAll(int64(i))
		clk.Advance(10 * time.Millisecond)
	}
	clk.Advance(15 * time.Millisecond)
	s.SimNow() // ticks every shard past the 50ms boundary
	// A shard's controller is live (SkipIdle): it keeps the last switch, not
	// the history, so each epoch's decision is read as it lands.
	for i, sd := range s.shards {
		if last, ok := sd.ctrl.LastSwitch(); !ok || last.Index != 1 {
			t.Errorf("shard %d pre-reload epoch decided class %d (fired %v), want 1", i, last.Index, ok)
		}
	}

	// Hot reload mid-run, between epochs.
	st, err := s.Reload("v2")
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != "v2" || st.Previous != "in-memory" {
		t.Errorf("reload status = %+v", st)
	}
	// Immediately visible as the published version...
	var buf strings.Builder
	s.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), `ssdkeeper_model_info{role="active",version="v2"} 1`) {
		t.Errorf("metrics missing published v2:\n%s", buf.String())
	}

	// Epoch 2: traffic in [55,100)ms, boundary at 100ms. Every shard must
	// decide with v2 now.
	for i := 0; i < 4; i++ {
		submitAll(int64(10 + i))
		clk.Advance(10 * time.Millisecond)
	}
	clk.Advance(10 * time.Millisecond)
	s.SimNow()

	for i, sd := range s.shards {
		if n := sd.ctrl.SwitchCount(); n < 2 {
			t.Fatalf("shard %d fired %d epochs, want >= 2", i, n)
		}
		if last, _ := sd.ctrl.LastSwitch(); last.Index != 2 {
			t.Errorf("shard %d post-reload epoch decided class %d, want 2", i, last.Index)
		}
	}
	buf.Reset()
	s.WriteMetrics(&buf)
	for i := range s.shards {
		want := fmt.Sprintf("ssdkeeper_shard_model_version{shard=\"%d\",version=\"v2\"} 1", i)
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, buf.String())
		}
	}

	// No lost completions: everything submitted across the swap resolves.
	clk.Advance(time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, p := range pending {
		if _, err := p.wait(ctx); err != nil {
			t.Fatalf("request lost across reload: %v", err)
		}
	}
}

// TestReloadHTTP covers the endpoint surface: method guard, 501 without a
// registry, JSON status with one, and error mapping.
func TestReloadHTTP(t *testing.T) {
	clk := newFakeClock()
	kCfg := keeperConfig()
	k, err := keeper.New(kCfg, forcedModel(t, len(kCfg.Strategies), 0))
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, testConfig(clk), k)
	defer s.Drain()
	ts := httptest.NewServer(s.Handler(time.Second))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/model/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("reload without registry = %d, want 501", resp.StatusCode)
	}

	v2, err := policy.NewModel("v2", forcedModel(t, len(kCfg.Strategies), 2), kCfg.Strategies)
	if err != nil {
		t.Fatal(err)
	}
	s.SetReloader(sourceReloader(k.Source(), map[string]policy.Provider{"": v2, "v2": v2}))

	resp, err = http.Get(ts.URL + "/model/reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /model/reload = %d, want 405", resp.StatusCode)
	}

	// Refused requests change nothing. A role parameter is refused rather
	// than ignored: ignoring role=shadow would promote its version to active.
	for _, bad := range []string{"?role=bogus", "?version=nope", "?role=shadow&version=v2"} {
		resp, err = http.Post(ts.URL+"/model/reload"+bad, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /model/reload%s = %d, want 400", bad, resp.StatusCode)
		}
		if got := k.Source().Active().Version(); got != "in-memory" {
			t.Errorf("POST /model/reload%s changed the active version to %q", bad, got)
		}
	}

	resp, err = http.Post(ts.URL+"/model/reload?version=v2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /model/reload = %d: %s", resp.StatusCode, body)
	}
	var st ReloadStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad reload response %q: %v", body, err)
	}
	if st.Version != "v2" || st.Previous != "in-memory" {
		t.Errorf("reload status = %+v", st)
	}
	if got := k.Source().Active().Version(); got != "v2" {
		t.Errorf("active after HTTP reload = %q", got)
	}
}
