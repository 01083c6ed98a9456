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
	return func(role, version string) (ReloadStatus, error) {
		if role == "shadow" && version == "none" {
			prev := src.SetShadow(nil)
			st := ReloadStatus{Role: role}
			if prev != nil {
				st.Previous = prev.Version()
			}
			return st, nil
		}
		prov, ok := providers[version]
		if !ok {
			return ReloadStatus{}, fmt.Errorf("unknown version %q", version)
		}
		st := ReloadStatus{Role: role, Version: prov.Version()}
		if role == "shadow" {
			if prev := src.SetShadow(prov); prev != nil {
				st.Previous = prev.Version()
			}
			return st, nil
		}
		prev, err := src.SetActive(prov)
		if err != nil {
			return ReloadStatus{}, err
		}
		st.Previous = prev.Version()
		return st, nil
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
	st, err := s.Reload("active", "v2")
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

// TestShadowCountersInMetrics: installing a shadow candidate surfaces
// agreement/divergence counters in /metrics while the device keeps following
// the active policy.
func TestShadowCountersInMetrics(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	kCfg := keeperConfig()
	k, err := keeper.New(kCfg, forcedModel(t, len(kCfg.Strategies), 1))
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, cfg, k)
	defer s.Drain()

	// Counters render (as zero) before any shadow exists.
	var buf strings.Builder
	s.WriteMetrics(&buf)
	if !strings.Contains(buf.String(), "ssdkeeper_shadow_agree_total 0") ||
		!strings.Contains(buf.String(), "ssdkeeper_shadow_diverge_total 0") {
		t.Fatalf("shadow counters absent without a candidate:\n%s", buf.String())
	}

	// A diverging candidate: static strategy != forced class 1.
	k.Source().SetShadow(policy.StaticProvider{Ver: "cand", Strategy: kCfg.Strategies[2]})
	for i := 0; i < 6; i++ {
		if _, err := submit(s, writeReq(0, int64(i))); err != nil {
			t.Fatal(err)
		}
		clk.Advance(10 * time.Millisecond)
	}
	clk.Advance(10 * time.Millisecond)
	s.SimNow()

	buf.Reset()
	s.WriteMetrics(&buf)
	out := buf.String()
	if !strings.Contains(out, `ssdkeeper_model_info{role="shadow",version="cand"} 1`) {
		t.Errorf("metrics missing shadow model_info:\n%s", out)
	}
	if !strings.Contains(out, "ssdkeeper_shadow_diverge_total 1") {
		t.Errorf("diverging shadow not counted:\n%s", out)
	}
	if sw, ok := s.Controller().LastSwitch(); !ok || sw.Index != 1 {
		t.Errorf("device followed the shadow: %+v (ok=%v)", sw, ok)
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
	if st.Role != "active" || st.Version != "v2" || st.Previous != "in-memory" {
		t.Errorf("reload status = %+v", st)
	}
	if got := k.Source().Active().Version(); got != "v2" {
		t.Errorf("active after HTTP reload = %q", got)
	}

	for _, bad := range []string{"?role=bogus", "?version=nope"} {
		resp, err = http.Post(ts.URL+"/model/reload"+bad, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /model/reload%s = %d, want 400", bad, resp.StatusCode)
		}
	}

	// Shadow install and clear through the endpoint.
	resp, err = http.Post(ts.URL+"/model/reload?role=shadow&version=v2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || k.Source().Shadow() == nil {
		t.Errorf("shadow install = %d, shadow = %v", resp.StatusCode, k.Source().Shadow())
	}
	resp, err = http.Post(ts.URL+"/model/reload?role=shadow&version=none", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || k.Source().Shadow() != nil {
		t.Errorf("shadow clear = %d, shadow = %v", resp.StatusCode, k.Source().Shadow())
	}
}
