package ssd

import (
	"testing"

	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/trace"
)

// Torture tests: pathological but legal inputs must neither crash nor lose
// requests.

func TestTortureAllRequestsSamePage(t *testing.T) {
	cfg := testConfig()
	d := mustDevice(t, cfg, DefaultOptions())
	var tr trace.Trace
	for i := 0; i < 500; i++ {
		op := trace.Write
		if i%3 == 0 {
			op = trace.Read
		}
		tr = append(tr, trace.Record{
			Time: sim.Time(i) * 10 * sim.Microsecond, Tenant: 0,
			Op: op, Offset: 0, Size: int32(cfg.PageSize),
		})
	}
	res := run(t, d, tr)
	if got := res.Device.Read.Count + res.Device.Write.Count; got != 500 {
		t.Errorf("completed %d of 500", got)
	}
	// Constant overwrites of one LPN invalidate aggressively.
	if res.FTL.Invalidations == 0 {
		t.Error("no invalidations under constant overwrite")
	}
}

func TestTortureSimultaneousBurst(t *testing.T) {
	cfg := testConfig()
	d := mustDevice(t, cfg, DefaultOptions())
	var tr trace.Trace
	for i := 0; i < 300; i++ {
		tr = append(tr, trace.Record{
			Time: 0, Tenant: i % 3, Op: trace.Write,
			Offset: int64(i) * int64(cfg.PageSize), Size: int32(cfg.PageSize),
		})
	}
	res := run(t, d, tr)
	if res.Device.Write.Count != 300 {
		t.Errorf("completed %d of 300", res.Device.Write.Count)
	}
	if res.Conflicts == 0 {
		t.Error("a 300-request burst produced no conflicts")
	}
}

func TestTortureHugeRequests(t *testing.T) {
	cfg := testConfig()
	d := mustDevice(t, cfg, DefaultOptions())
	// 256-page (4MB) requests fan out across every channel repeatedly.
	tr := trace.Trace{
		{Time: 0, Tenant: 0, Op: trace.Write, Offset: 0, Size: 256 * int32(cfg.PageSize)},
		{Time: sim.Millisecond, Tenant: 0, Op: trace.Read, Offset: 0, Size: 256 * int32(cfg.PageSize)},
	}
	res := run(t, d, tr)
	if res.FTL.Writes != 256 {
		t.Errorf("wrote %d pages, want 256", res.FTL.Writes)
	}
	if res.Device.Read.Count != 1 || res.Device.Write.Count != 1 {
		t.Error("requests lost")
	}
}

func TestTortureManyTenants(t *testing.T) {
	cfg := testConfig()
	d := mustDevice(t, cfg, DefaultOptions())
	var tr trace.Trace
	for i := 0; i < 64; i++ {
		tr = append(tr, trace.Record{
			Time: sim.Time(i) * sim.Microsecond, Tenant: i, // 64 distinct tenants
			Op: trace.Write, Offset: 0, Size: int32(cfg.PageSize),
		})
	}
	res := run(t, d, tr)
	if len(res.PerTenant) != 64 {
		t.Errorf("tracked %d tenants, want 64", len(res.PerTenant))
	}
}

func TestTortureUnalignedExtents(t *testing.T) {
	cfg := testConfig()
	d := mustDevice(t, cfg, DefaultOptions())
	ps := int64(cfg.PageSize)
	tr := trace.Trace{
		// Crosses a page boundary by one byte: two pages.
		{Time: 0, Tenant: 0, Op: trace.Write, Offset: ps - 1, Size: 2},
		// Starts and ends mid-page: one page.
		{Time: sim.Microsecond, Tenant: 0, Op: trace.Read, Offset: ps + 100, Size: 10},
		// Exactly one page, unaligned start: two pages.
		{Time: 2 * sim.Microsecond, Tenant: 0, Op: trace.Write, Offset: ps / 2, Size: int32(cfg.PageSize)},
	}
	res := run(t, d, tr)
	if res.FTL.Writes != 2+2 {
		t.Errorf("page writes = %d, want 4 (2 + 2 for the unaligned extents)", res.FTL.Writes)
	}
}

func TestTortureDeterministicUnderStress(t *testing.T) {
	cfg := nand.EvalConfig()
	p := trace.Profile{
		Name: "stress", WriteRatio: 0.7, Count: 3000, IOPS: 50000, // far beyond saturation
		Address: 32 << 20, SeqProb: 0.5, MinPages: 1, MaxPages: 8,
		PageSize: cfg.PageSize, Burstiness: 1.0, Seed: 99,
	}
	tr, err := trace.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() Result {
		d := mustDevice(t, cfg, DefaultOptions())
		if err := d.FTL().Season(0.5, 5); err != nil {
			t.Fatal(err)
		}
		return run(t, d, tr)
	}
	a, b := runOnce(), runOnce()
	if a.Device.Write.Sum != b.Device.Write.Sum || a.Makespan != b.Makespan {
		t.Error("overloaded simulation not deterministic")
	}
	if a.FTL.GCRuns == 0 {
		t.Error("stress run did not exercise GC")
	}
}
