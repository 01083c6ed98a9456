package workload

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/ftl"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
)

func twoTenantSpec(wp float64, requests int, iops float64) MixSpec {
	return MixSpec{
		Tenants: []TenantSpec{
			{WriteRatio: 1, Share: wp},
			{WriteRatio: 0, Share: 1 - wp},
		},
		Requests: requests,
		IOPS:     iops,
		Seed:     42,
	}
}

// run replays t on a fresh simrun runner.
func run(rc simrun.Config, t trace.Trace) (ssd.Result, error) {
	res, err := simrun.NewRunner().Run(context.Background(), rc, t)
	return res.Result, err
}

// newDevice builds the device rc describes, ready for traffic.
func newDevice(rc simrun.Config) (*ssd.Device, error) {
	sess, err := simrun.NewRunner().NewSession(rc)
	if err != nil {
		return nil, err
	}
	return sess.Device(), nil
}

func TestMixSpecValidate(t *testing.T) {
	good := twoTenantSpec(0.3, 100, 1000)
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []MixSpec{
		{},
		{Tenants: []TenantSpec{{WriteRatio: 0.5, Share: 1}}, Requests: 0, IOPS: 1},
		{Tenants: []TenantSpec{{WriteRatio: 0.5, Share: 1}}, Requests: 1, IOPS: 0},
		{Tenants: []TenantSpec{{WriteRatio: 2, Share: 1}}, Requests: 1, IOPS: 1},
		{Tenants: []TenantSpec{{WriteRatio: 0.5, Share: 0.4}}, Requests: 1, IOPS: 1}, // shares != 1
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestMixSpecBuildProportions(t *testing.T) {
	spec := twoTenantSpec(0.3, 10000, 5000)
	tr, err := spec.Build(16384)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Summarize()
	if s.Tenants != 2 {
		t.Fatalf("tenants %d", s.Tenants)
	}
	// Tenant 0 writes everything, tenant 1 reads everything, so the
	// overall write ratio equals tenant 0's share.
	if math.Abs(s.WriteRatio-0.3) > 0.02 {
		t.Errorf("write ratio %v, want 0.3", s.WriteRatio)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMixSpecTraits(t *testing.T) {
	spec := twoTenantSpec(0.5, 10, 10)
	traits := spec.Traits()
	if !traits[0].WriteDominated || traits[1].WriteDominated {
		t.Errorf("traits wrong: %+v", traits)
	}
}

func TestRandomMixSpecAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		spec := RandomMixSpec(rng, 1000, 16000)
		if err := spec.Validate(); err != nil {
			t.Fatalf("draw %d invalid: %v", i, err)
		}
		if len(spec.Tenants) != 4 {
			t.Fatalf("draw %d has %d tenants", i, len(spec.Tenants))
		}
		for ti, tenant := range spec.Tenants {
			// Tenants must be clearly read- or write-dominated.
			if tenant.WriteRatio > 0.25 && tenant.WriteRatio < 0.75 {
				t.Errorf("draw %d tenant %d balanced ratio %v", i, ti, tenant.WriteRatio)
			}
		}
		if spec.IOPS <= 0 || spec.IOPS > 16000 {
			t.Errorf("draw %d IOPS %v out of range", i, spec.IOPS)
		}
	}
}

func TestRunStrategiesDiffer(t *testing.T) {
	cfg := nand.EvalConfig()
	spec := twoTenantSpec(0.7, 6000, 8000)
	tr, err := spec.Build(cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	runStrategy := func(s alloc.Strategy) ssd.Result {
		res, err := run(simrun.Config{
			Device: cfg, Options: ssd.DefaultOptions(),
			Strategy: s, Traits: spec.Traits(),
			Season: simrun.DefaultSeasoning(),
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	shared := runStrategy(alloc.Strategy{Kind: alloc.Shared})
	grouped := runStrategy(alloc.Strategy{Kind: alloc.TwoGroup, WriteChannels: 7})
	if shared.Device.Total() == grouped.Device.Total() {
		t.Error("strategies produced identical latency; binding has no effect")
	}
	// At 70% writes on a seasoned device, isolating the write stream onto
	// 7 channels must beat Shared (the paper's core claim).
	if grouped.Device.Total() >= shared.Device.Total() {
		t.Errorf("7:1 (%v) not better than Shared (%v) at write-heavy load",
			grouped.Device.Total(), shared.Device.Total())
	}
}

func TestApplyHybridSetsModes(t *testing.T) {
	cfg := nand.TinyConfig()
	dev, err := newDevice(simrun.Config{Device: cfg, Options: ssd.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	traits := []alloc.TenantTraits{{WriteDominated: true}, {WriteDominated: false}}
	if err := simrun.Apply(dev, new(alloc.Binding), alloc.Strategy{Kind: alloc.Isolated}, traits, true); err != nil {
		t.Fatal(err)
	}
	if got := dev.FTL().TenantMode(0); got != ftl.DynamicAlloc {
		t.Errorf("write-dominated tenant mode %v, want dynamic", got)
	}
	if got := dev.FTL().TenantMode(1); got != ftl.StaticAlloc {
		t.Errorf("read-dominated tenant mode %v, want static", got)
	}
	// Non-hybrid: everything static.
	if err := simrun.Apply(dev, new(alloc.Binding), alloc.Strategy{Kind: alloc.Isolated}, traits, false); err != nil {
		t.Fatal(err)
	}
	if got := dev.FTL().TenantMode(0); got != ftl.StaticAlloc {
		t.Errorf("non-hybrid mode %v, want static", got)
	}
}

func TestNewDeviceSeasonsBeforeTraffic(t *testing.T) {
	cfg := nand.EvalConfig()
	dev, err := newDevice(simrun.Config{
		Device: cfg, Options: ssd.DefaultOptions(),
		Strategy: alloc.Strategy{Kind: alloc.Shared},
		Traits:   []alloc.TenantTraits{{}},
		Season:   simrun.DefaultSeasoning(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := dev.FTL().LiveColdPages(); got == 0 {
		t.Error("seasoning left no cold data")
	}
}

func TestRunPropagatesDeviceFull(t *testing.T) {
	cfg := nand.EvalConfig()
	// A write-dominated tenant forced onto one heavily seasoned channel
	// with a working set that cannot fit must surface ErrDeviceFull. (A
	// second read-dominated tenant keeps the two-group split from
	// degenerating to Shared.)
	spec := MixSpec{
		Tenants: []TenantSpec{
			{WriteRatio: 1, Share: 0.9},
			{WriteRatio: 0, Share: 0.1},
		},
		Requests: 40000,
		IOPS:     16000,
		Seed:     1,
	}
	tr, err := spec.Build(cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	_, err = run(simrun.Config{
		Device: cfg, Options: ssd.DefaultOptions(),
		Strategy: alloc.Strategy{Kind: alloc.TwoGroup, WriteChannels: 1},
		Traits:   spec.Traits(),
		Season:   simrun.Seasoning{ValidFrac: 0.9, FreeBlocks: 4},
	}, tr)
	if !errors.Is(err, ftl.ErrDeviceFull) {
		t.Errorf("want ErrDeviceFull, got %v", err)
	}
}

func TestSaturationIOPSReasonable(t *testing.T) {
	cfg := nand.DefaultConfig()
	got := SaturationIOPS(cfg, 4.5)
	// 16 dies, ~150us mixed per page op incl transfer, /4.5 pages.
	if got < 10000 || got > 60000 {
		t.Errorf("saturation estimate %v implausible", got)
	}
	// More pages per request must lower the request-rate ceiling.
	if SaturationIOPS(cfg, 8) >= SaturationIOPS(cfg, 1) {
		t.Error("saturation not monotone in request size")
	}
}

func TestTotalLatencyMatchesDeviceTotal(t *testing.T) {
	cfg := nand.TinyConfig()
	spec := twoTenantSpec(0.5, 200, 2000)
	tr, err := spec.Build(cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(simrun.Config{
		Device: cfg, Options: ssd.DefaultOptions(),
		Strategy: alloc.Strategy{Kind: alloc.Shared}, Traits: spec.Traits(),
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if TotalLatency(res) != res.Device.Total() {
		t.Error("TotalLatency helper disagrees with Device.Total")
	}
}

func TestTraitsFromTrace(t *testing.T) {
	tr := trace.Trace{
		{Time: 0, Tenant: 0, Op: trace.Write, Size: 1},
		{Time: 1, Tenant: 0, Op: trace.Write, Size: 1},
		{Time: 2, Tenant: 0, Op: trace.Read, Size: 1},
		{Time: 3, Tenant: 1, Op: trace.Read, Size: 1},
		{Time: 4, Tenant: 9, Op: trace.Write, Size: 1}, // outside range
	}
	traits := TraitsFromTrace(tr, 3)
	if len(traits) != 3 {
		t.Fatalf("traits len %d", len(traits))
	}
	if !traits[0].WriteDominated {
		t.Error("tenant 0 should be write-dominated (2 of 3 writes)")
	}
	if traits[1].WriteDominated {
		t.Error("tenant 1 should be read-dominated")
	}
	if traits[2].WriteDominated {
		t.Error("silent tenant 2 should default to read-dominated")
	}
}
