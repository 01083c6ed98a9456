package keeper

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/ftl"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/nn"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/stats"
	"ssdkeeper/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_replay.json from this build")

// goldenAcc is everything a stats.Acc reports, moments and histogram both.
type goldenAcc struct {
	Count            uint64
	Sum, Min, Max    sim.Time
	P50, P99         sim.Time
	MeanUS, StddevUS float64
}

func goldenAccOf(a stats.Acc) goldenAcc {
	return goldenAcc{
		Count: a.Count, Sum: a.Sum, Min: a.Min, Max: a.Max,
		P50: a.P50(), P99: a.P99(), MeanUS: a.Mean(), StddevUS: a.Stddev(),
	}
}

// goldenResult is a whole ssd.Result (plus the keeper's decisions) in a form
// that survives a JSON round trip exactly: integers, and floats printed at
// full precision.
type goldenResult struct {
	Makespan     sim.Time
	Requests     int
	Read, Write  goldenAcc
	TenantRead   map[int]goldenAcc
	TenantWrite  map[int]goldenAcc
	Bus, Die     []sim.Stats
	FTL          ftl.Counters
	Conflicts    uint64
	ConflictWait sim.Time
	Fairness     float64
	SwitchAt     []sim.Time
	SwitchIndex  []int
}

func goldenOf(r ssd.Result, sw []Switch) goldenResult {
	g := goldenResult{
		Makespan: r.Makespan, Requests: r.Requests,
		Read: goldenAccOf(r.Device.Read), Write: goldenAccOf(r.Device.Write),
		TenantRead: map[int]goldenAcc{}, TenantWrite: map[int]goldenAcc{},
		Bus: r.BusStats, Die: r.DieStats, FTL: r.FTL,
		Conflicts: r.Conflicts, ConflictWait: r.ConflictWait, Fairness: r.Fairness,
	}
	for id, l := range r.PerTenant {
		g.TenantRead[id] = goldenAccOf(l.Read)
		g.TenantWrite[id] = goldenAccOf(l.Write)
	}
	for _, s := range sw {
		g.SwitchAt = append(g.SwitchAt, s.At)
		g.SwitchIndex = append(g.SwitchIndex, s.Index)
	}
	return g
}

// TestGoldenReplay pins "simulated results are bit-identical" as a tier-1
// fact: the paper's canonical mix (write ratios 0.9/0.1/0.8/0.2) on the
// seasoned evaluation geometry, under the keeper and under static Shared,
// plain and through a die failure (whose rebuild stretches die holds, so its
// events take the engine's heap fallback rather than its constant-hold lanes),
// must reproduce testdata/golden_replay.json — the whole ssd.Result,
// including ftl.Counters.Mapped and every bus and die counter. A change to
// the simulator's host-side data structures must leave the file untouched; a
// change to the model regenerates it on purpose with
//
//	go test ./internal/keeper -run TestGoldenReplay -update
func TestGoldenReplay(t *testing.T) {
	dev := nand.EvalConfig()
	dev.WearThreshold = 2 // so that 20000 requests reach static wear leveling too
	mix := workload.MixSpec{Requests: 20000, IOPS: 8000, Seed: 3}
	for _, wr := range []float64{0.9, 0.1, 0.8, 0.2} {
		mix.Tenants = append(mix.Tenants, workload.TenantSpec{WriteRatio: wr, Share: 0.25})
	}
	tr, err := mix.Build(dev.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// The trace spans 2.5 s; the die dies under load, after GC has started.
	plan, err := nand.ParseFaultPlan("die:ch2:die1@1s")
	if err != nil {
		t.Fatal(err)
	}
	strategies := alloc.FourTenantSpace(dev.Channels)
	// An untrained but seeded network: the decisions only have to be a
	// deterministic function of the observed features.
	model, err := nn.NewMLP([]int{features.Dim, 16, len(strategies)}, nn.Logistic{}, 7)
	if err != nil {
		t.Fatal(err)
	}

	got := map[string]goldenResult{}
	for _, c := range []struct {
		name  string
		fault *nand.FaultPlan
	}{{name: ""}, {name: "_diefail", fault: plan}} {
		name := c.name
		opts := ssd.DefaultOptions()
		opts.FaultPlan = c.fault

		k, err := New(Config{
			Device: dev, Options: opts, Strategies: strategies, SaturationIOPS: 16000,
			Window: 50 * sim.Millisecond, AdaptEvery: 50 * sim.Millisecond,
			Hybrid: true, Season: simrun.DefaultSeasoning(),
		}, model)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := k.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		got["keeper"+name] = goldenOf(rep.Result, rep.Switches)

		sess, err := simrun.NewRunner().NewSession(simrun.Config{
			Device: dev, Options: opts, Season: simrun.DefaultSeasoning(),
			Strategy: alloc.Strategy{Kind: alloc.Shared}, Traits: mix.Traits(),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		got["shared"+name] = goldenOf(res.Result, nil)

		// Where the engine queued this replay's events changes nothing
		// above, only host time; the split is pinned so a change that sends
		// the common event back to the heap is seen. The plain replay has
		// three hold lengths and GC; the die failure stretches holds, so it
		// also pins that the heap fallback fires in (at, seq) order.
		src := sess.Device().Engine().Sources()
		fired := src.Lane + src.InOrder + src.Heap
		t.Logf("shared%s: %d events, %+v, %.1f%% from the heap", name, fired, src, 100*float64(src.Heap)/float64(fired))
		switch {
		case src.InOrder != uint64(len(tr)):
			t.Errorf("shared%s: %d of %d arrivals came from the in-order lane", name, src.InOrder, len(tr))
		case name == "" && src.Heap*10 > fired:
			t.Errorf("shared: %d of %d events came from the heap, want at most a tenth", src.Heap, fired)
		case name != "" && src.Heap == 0:
			t.Errorf("shared%s: no event reached the heap; the scenario no longer covers the fallback", name)
		}
	}

	path := filepath.Join("testdata", "golden_replay.json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenResult
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: in the golden file but not produced", name)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			gj, _ := json.Marshal(g)
			wj, _ := json.Marshal(w)
			t.Errorf("%s: result differs from golden\n got %s\nwant %s", name, gj, wj)
		}
	}
	if len(got) != len(want) {
		t.Errorf("produced %d scenarios, golden file has %d", len(got), len(want))
	}
}
