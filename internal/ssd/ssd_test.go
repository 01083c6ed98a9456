package ssd

import (
	"errors"
	"math"
	"testing"

	"ssdkeeper/internal/ftl"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/trace"
)

func testConfig() nand.Config {
	return nand.TinyConfig() // Table I timing, shrunk capacity
}

func mustDevice(t *testing.T, cfg nand.Config, opts Options) *Device {
	t.Helper()
	d, err := New(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func run(t *testing.T, d *Device, tr trace.Trace) Result {
	t.Helper()
	res, err := d.Run(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSinglePageReadLatency(t *testing.T) {
	cfg := testConfig()
	d := mustDevice(t, cfg, DefaultOptions())
	res := run(t, d, trace.Trace{
		{Time: 0, Tenant: 0, Op: trace.Read, Offset: 0, Size: int32(cfg.PageSize)},
	})
	// Uncontended read: tR + tXfer = 20us + 40us.
	want := (cfg.ReadLatency + cfg.XferLatency).Micros()
	if got := res.Device.Read.Mean(); math.Abs(got-want) > 1e-9 {
		t.Errorf("read latency %vus, want %vus", got, want)
	}
}

func TestSinglePageWriteLatency(t *testing.T) {
	cfg := testConfig()
	d := mustDevice(t, cfg, DefaultOptions())
	res := run(t, d, trace.Trace{
		{Time: 0, Tenant: 0, Op: trace.Write, Offset: 0, Size: int32(cfg.PageSize)},
	})
	// Uncontended write: tXfer + tPROG = 40us + 200us.
	want := (cfg.XferLatency + cfg.WriteLatency).Micros()
	if got := res.Device.Write.Mean(); math.Abs(got-want) > 1e-9 {
		t.Errorf("write latency %vus, want %vus", got, want)
	}
}

func TestMultiPageRequestWaitsForSlowestPage(t *testing.T) {
	cfg := testConfig()
	d := mustDevice(t, cfg, DefaultOptions())
	// 4 pages striped statically over 4 distinct channels: the die times
	// overlap, but each page still pays its own transfer; the request
	// ends when the last page lands.
	res := run(t, d, trace.Trace{
		{Time: 0, Tenant: 0, Op: trace.Write, Offset: 0, Size: 4 * int32(cfg.PageSize)},
	})
	perPage := (cfg.XferLatency + cfg.WriteLatency).Micros()
	got := res.Device.Write.Mean()
	if got < perPage {
		t.Errorf("4-page write %vus faster than a single page %vus", got, perPage)
	}
	// On distinct channels the pages proceed in parallel; the total must
	// be far below 4x serial.
	if got >= 4*perPage {
		t.Errorf("4-page write %vus shows no parallelism (serial would be %vus)", got, 4*perPage)
	}
}

func TestPartialPageRoundsUp(t *testing.T) {
	cfg := testConfig()
	d := mustDevice(t, cfg, DefaultOptions())
	// 1 byte crossing nothing: still one page.
	res := run(t, d, trace.Trace{
		{Time: 0, Tenant: 0, Op: trace.Read, Offset: 100, Size: 1},
	})
	if res.Device.Read.Count != 1 {
		t.Fatal("request lost")
	}
	want := (cfg.ReadLatency + cfg.XferLatency).Micros()
	if got := res.Device.Read.Mean(); math.Abs(got-want) > 1e-9 {
		t.Errorf("sub-page read %vus, want one-page %vus", got, want)
	}
}

func TestSameDieWritesConflict(t *testing.T) {
	cfg := testConfig()
	d := mustDevice(t, cfg, DefaultOptions())
	// Two writes to the same LPN region land on the same channel; issue
	// them simultaneously. LPN 0 and LPN 8*2*4=64 map to channel 0 again
	// under static striping (8 channels * 2 dies * 4 planes).
	stride := int64(cfg.Channels * cfg.DiesPerChannel() * cfg.PlanesPerDie)
	res := run(t, d, trace.Trace{
		{Time: 0, Tenant: 0, Op: trace.Write, Offset: 0, Size: int32(cfg.PageSize)},
		{Time: 0, Tenant: 0, Op: trace.Write, Offset: stride * int64(cfg.PageSize), Size: int32(cfg.PageSize)},
	})
	if res.Conflicts == 0 {
		t.Error("simultaneous same-die writes produced no conflicts")
	}
	// Second write queues behind the first transfer at least.
	if res.Device.Write.Max <= cfg.XferLatency+cfg.WriteLatency {
		t.Errorf("max write latency %v shows no queueing", res.Device.Write.Max)
	}
}

func TestDisjointChannelsDoNotConflict(t *testing.T) {
	cfg := testConfig()
	d := mustDevice(t, cfg, DefaultOptions())
	// Tenant 0 on channel 0, tenant 1 on channel 1: simultaneous writes
	// proceed fully in parallel.
	if err := d.FTL().SetTenantChannels(0, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := d.FTL().SetTenantChannels(1, []int{1}); err != nil {
		t.Fatal(err)
	}
	res := run(t, d, trace.Trace{
		{Time: 0, Tenant: 0, Op: trace.Write, Offset: 0, Size: int32(cfg.PageSize)},
		{Time: 0, Tenant: 1, Op: trace.Write, Offset: 0, Size: int32(cfg.PageSize)},
	})
	if res.Conflicts != 0 {
		t.Errorf("isolated tenants conflicted %d times", res.Conflicts)
	}
	want := (cfg.XferLatency + cfg.WriteLatency).Micros()
	for tenant := 0; tenant < 2; tenant++ {
		if got := res.PerTenant[tenant].Write.Mean(); math.Abs(got-want) > 1e-9 {
			t.Errorf("tenant %d write %vus, want uncontended %vus", tenant, got, want)
		}
	}
}

func TestSharedChannelTenantsInterfere(t *testing.T) {
	cfg := testConfig()
	d := mustDevice(t, cfg, DefaultOptions())
	for tenant := 0; tenant < 2; tenant++ {
		if err := d.FTL().SetTenantChannels(tenant, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	res := run(t, d, trace.Trace{
		{Time: 0, Tenant: 0, Op: trace.Write, Offset: 0, Size: int32(cfg.PageSize)},
		{Time: 0, Tenant: 1, Op: trace.Write, Offset: 0, Size: int32(cfg.PageSize)},
	})
	if res.Conflicts == 0 {
		t.Error("same-channel tenants did not conflict")
	}
}

func TestReadPriorityJumpsWriteQueue(t *testing.T) {
	cfg := testConfig()

	latencies := func(readPriority bool) (readUs float64) {
		d := mustDevice(t, cfg, Options{ReadPriority: readPriority})
		// Pre-write the page the read will fetch so it has a mapping
		// on channel 0, then saturate channel 0's bus with writes and
		// issue the read last.
		tr := trace.Trace{
			{Time: 0, Tenant: 0, Op: trace.Write, Offset: 0, Size: int32(cfg.PageSize)},
		}
		at := sim.Time(400 * sim.Microsecond)
		stride := int64(cfg.Channels*cfg.DiesPerChannel()*cfg.PlanesPerDie) * int64(cfg.PageSize)
		for i := 1; i <= 6; i++ {
			tr = append(tr, trace.Record{
				Time: at, Tenant: 0, Op: trace.Write,
				Offset: int64(i) * stride, Size: int32(cfg.PageSize),
			})
		}
		tr = append(tr, trace.Record{
			Time: at + 1, Tenant: 0, Op: trace.Read, Offset: 0, Size: int32(cfg.PageSize),
		})
		res := run(t, d, tr)
		return res.Device.Read.Mean()
	}

	withPrio := latencies(true)
	withoutPrio := latencies(false)
	if withPrio >= withoutPrio {
		t.Errorf("read priority did not help: %vus with vs %vus without", withPrio, withoutPrio)
	}
}

func TestRunRejectsInvalidTrace(t *testing.T) {
	d := mustDevice(t, testConfig(), DefaultOptions())
	bad := trace.Trace{{Time: 10, Size: 1}, {Time: 0, Size: 1}}
	if _, err := d.Run(bad, nil); err == nil {
		t.Error("out-of-order trace accepted")
	}
}

func TestSubmitRejectsZeroPages(t *testing.T) {
	d := mustDevice(t, testConfig(), DefaultOptions())
	err := d.Submit(trace.Record{Op: trace.Read, Offset: 0, Size: 0}, nil)
	if err == nil {
		t.Error("zero-size request accepted")
	}
}

func TestOnArrivalHookSeesEveryRecordInOrder(t *testing.T) {
	cfg := testConfig()
	d := mustDevice(t, cfg, DefaultOptions())
	tr := trace.Trace{
		{Time: 0, Tenant: 0, Op: trace.Write, Offset: 0, Size: int32(cfg.PageSize)},
		{Time: 100, Tenant: 1, Op: trace.Read, Offset: 0, Size: int32(cfg.PageSize)},
		{Time: 300, Tenant: 2, Op: trace.Read, Offset: 0, Size: int32(cfg.PageSize)},
	}
	var seen []int
	_, err := d.Run(tr, func(i int, r trace.Record) {
		seen = append(seen, i)
		if d.Engine().Now() != r.Time {
			t.Errorf("hook for record %d at %v, want %v", i, d.Engine().Now(), r.Time)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[2] != 2 {
		t.Errorf("hook order %v", seen)
	}
}

func TestResultAccounting(t *testing.T) {
	cfg := testConfig()
	d := mustDevice(t, cfg, DefaultOptions())
	tr := trace.Trace{
		{Time: 0, Tenant: 0, Op: trace.Write, Offset: 0, Size: 2 * int32(cfg.PageSize)},
		{Time: 50 * sim.Microsecond, Tenant: 1, Op: trace.Read, Offset: 1 << 20, Size: int32(cfg.PageSize)},
	}
	res := run(t, d, tr)
	if res.Requests != 2 {
		t.Errorf("requests = %d", res.Requests)
	}
	if res.Device.Write.Count != 1 || res.Device.Read.Count != 1 {
		t.Errorf("op counts wrong: %+v", res.Device)
	}
	if len(res.BusStats) != cfg.Channels || len(res.DieStats) != cfg.TotalDies() {
		t.Error("resource stats missing")
	}
	if res.FTL.Writes != 2 {
		t.Errorf("ftl writes = %d, want 2 pages", res.FTL.Writes)
	}
	if res.FTL.Preloads != 1 {
		t.Errorf("ftl preloads = %d, want 1 (read of unwritten page)", res.FTL.Preloads)
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
}

func TestGCChargeDelaysForegroundOps(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 1
	cfg.ChipsPerChannel = 1
	cfg.PlanesPerDie = 1
	cfg.BlocksPerPlane = 8
	cfg.PagesPerBlock = 4
	cfg.GCThreshold = 0.15
	d := mustDevice(t, cfg, DefaultOptions())
	// Hammer overwrites of a small working set to force GC, then check
	// that max write latency shows the GC stall (erase is 1.5ms).
	var tr trace.Trace
	at := sim.Time(0)
	for round := 0; round < 20; round++ {
		for lpn := int64(0); lpn < 8; lpn++ {
			tr = append(tr, trace.Record{
				Time: at, Tenant: 0, Op: trace.Write,
				Offset: lpn * int64(cfg.PageSize), Size: int32(cfg.PageSize),
			})
			at += 300 * sim.Microsecond // just above per-write service time
		}
	}
	res := run(t, d, tr)
	if res.FTL.GCRuns == 0 {
		t.Fatal("workload did not trigger GC")
	}
	if res.Device.Write.Max < cfg.EraseLatency {
		t.Errorf("max write latency %v never absorbed an erase (%v)",
			res.Device.Write.Max, cfg.EraseLatency)
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := testConfig()
	p := trace.Profile{
		Name: "d", WriteRatio: 0.5, Count: 500, IOPS: 20000,
		Address: 1 << 28, SeqProb: 0.2, MinPages: 1, MaxPages: 4,
		PageSize: cfg.PageSize, Seed: 3,
	}
	tr, err := trace.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	r1 := run(t, mustDevice(t, cfg, DefaultOptions()), tr)
	r2 := run(t, mustDevice(t, cfg, DefaultOptions()), tr)
	if r1.Device.Read.Sum != r2.Device.Read.Sum || r1.Device.Write.Sum != r2.Device.Write.Sum {
		t.Error("identical runs produced different latencies")
	}
	if r1.Makespan != r2.Makespan {
		t.Error("identical runs produced different makespans")
	}
}

func TestSubmitAtRejectsFutureArrival(t *testing.T) {
	cfg := testConfig()
	d := mustDevice(t, cfg, DefaultOptions())
	err := d.SubmitAt(trace.Record{Op: trace.Read, Size: 1}, 100, nil)
	if err == nil {
		t.Error("future arrival accepted")
	}
}

// countingCompleter records how often the device reported a latency.
type countingCompleter struct{ calls int }

func (c *countingCompleter) Done(sim.Time) { c.calls++ }

// assertSettled drains the engine and checks that a failed SubmitAt left the
// device as it found it: the request free list back at its prior length,
// nothing reported to the completer or the collector.
func assertSettled(t *testing.T, d *Device, free int, done *countingCompleter, recorded uint64) {
	t.Helper()
	d.eng.Run()
	if len(d.reqFree) != free {
		t.Errorf("request free list holds %d records, held %d before the failed submit", len(d.reqFree), free)
	}
	if done.calls != 0 {
		t.Errorf("completer called %d times for a request that failed", done.calls)
	}
	if got := d.col.Device().Read.Count + d.col.Device().Write.Count; got != recorded {
		t.Errorf("collector holds %d latencies, held %d before the failed submit", got, recorded)
	}
}

// A mapping error part-way through a request's fan-out must not leak the
// pooled request record. Here the second page of a read lies past the
// mapping table's range.
func TestSubmitAtAddressRangeOnSecondPageSettles(t *testing.T) {
	cfg := testConfig()
	d := mustDevice(t, cfg, DefaultOptions())
	run(t, d, trace.Trace{{Op: trace.Read, Size: int32(cfg.PageSize)}}) // one record in the free list
	free := len(d.reqFree)
	if free == 0 {
		t.Fatal("no pooled request record to lose")
	}
	recorded := d.col.Device().Read.Count
	var done countingCompleter
	last := int64(ftl.MaxLPN-1) * int64(cfg.PageSize)
	err := d.Submit(trace.Record{Op: trace.Read, Offset: last, Size: 2 * int32(cfg.PageSize)}, &done)
	if !errors.Is(err, ftl.ErrAddressRange) {
		t.Fatalf("want ErrAddressRange, got %v", err)
	}
	if len(d.reqFree) != free-1 {
		t.Errorf("%d free records while the first page is on the device, want %d", len(d.reqFree), free-1)
	}
	assertSettled(t, d, free, &done, recorded)

	// With the very first page out of range nothing was issued: the record
	// comes back before SubmitAt returns.
	err = d.Submit(trace.Record{Op: trace.Write, Offset: last + int64(cfg.PageSize), Size: int32(cfg.PageSize)}, &done)
	if !errors.Is(err, ftl.ErrAddressRange) {
		t.Fatalf("want ErrAddressRange, got %v", err)
	}
	if len(d.reqFree) != free {
		t.Errorf("%d free records straight after a first-page failure, want %d", len(d.reqFree), free)
	}
	assertSettled(t, d, free, &done, recorded)
}

// The same on a full plane: distinct pages fill a one-plane device until a
// two-page write maps its first page and finds no block for its second.
func TestSubmitAtDeviceFullSettles(t *testing.T) {
	cfg := testConfig()
	cfg.Channels, cfg.ChipsPerChannel, cfg.DiesPerChip, cfg.PlanesPerDie = 1, 1, 1, 1
	cfg.BlocksPerPlane, cfg.PagesPerBlock = 8, 4
	page := func(lpn int) trace.Record {
		return trace.Record{Op: trace.Write, Offset: int64(lpn) * int64(cfg.PageSize), Size: int32(cfg.PageSize)}
	}
	// Capacity in distinct pages, found by filling a scratch device.
	probe := mustDevice(t, cfg, DefaultOptions())
	capacity := 0
	for ; capacity <= cfg.BlocksPerPlane*cfg.PagesPerBlock; capacity++ {
		if err := probe.Submit(page(capacity), nil); err != nil {
			if !errors.Is(err, ftl.ErrDeviceFull) {
				t.Fatal(err)
			}
			break
		}
		probe.eng.Run()
	}
	if capacity < 2 || capacity > cfg.BlocksPerPlane*cfg.PagesPerBlock {
		t.Fatalf("one-plane device took %d distinct pages", capacity)
	}

	d := mustDevice(t, cfg, DefaultOptions())
	for lpn := 0; lpn < capacity-1; lpn++ {
		if err := d.Submit(page(lpn), nil); err != nil {
			t.Fatal(err)
		}
		d.eng.Run()
	}
	free := len(d.reqFree)
	recorded := d.col.Device().Write.Count
	var done countingCompleter
	two := page(capacity - 1)
	two.Size = 2 * int32(cfg.PageSize)
	if err := d.Submit(two, &done); !errors.Is(err, ftl.ErrDeviceFull) {
		t.Fatalf("want ErrDeviceFull on the second page, got %v", err)
	}
	assertSettled(t, d, free, &done, recorded)
	if err := d.Submit(page(capacity), &done); !errors.Is(err, ftl.ErrDeviceFull) {
		t.Fatalf("want ErrDeviceFull on the only page, got %v", err)
	}
	if len(d.reqFree) != free {
		t.Errorf("%d free records straight after a first-page failure, want %d", len(d.reqFree), free)
	}
	assertSettled(t, d, free, &done, recorded)
}
