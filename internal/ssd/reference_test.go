package ssd_test

import (
	"math/rand"
	"testing"

	"ssdkeeper/internal/ftl"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
	"ssdkeeper/internal/workload"
)

// refDevice is the textbook device model — every bus and die is one
// `start = max(ready, free_at)` word, requests are served in the order they
// are dispatched — over the same FTL and the same per-page timing as
// ssd.Device, with no engine, no events and no queues. It is two things:
//
//   - A differential oracle. The two models differ only in arbitration
//     (refDevice hands a resource out in dispatch order; ssd.Device in order
//     of arrival at the resource, by priority), so on a trace where no
//     operation ever waits they must agree on every request's latency.
//   - A floor. What refDevice costs per request is what the FTL and the
//     timing arithmetic cost; what ssd.Device costs beyond that is event
//     machinery (BenchmarkReferenceFloor).
//
// Placement must not depend on load for the two FTLs to stay in step, so it
// serves statically allocated tenants (the device's default) only.
type refDevice struct {
	cfg     nand.Config
	ftl     *ftl.FTL
	busFree []sim.Time
	dieFree []sim.Time
}

func newRefDevice(cfg nand.Config) (*refDevice, error) {
	f, err := ftl.New(cfg, nil)
	if err != nil {
		return nil, err
	}
	return &refDevice{
		cfg: cfg, ftl: f,
		busFree: make([]sim.Time, cfg.Channels),
		dieFree: make([]sim.Time, cfg.TotalDies()),
	}, nil
}

// hold occupies a resource for d from the moment both it and the operation
// are ready, and returns when the hold ends.
func hold(freeAt *sim.Time, ready, d sim.Time) sim.Time {
	*freeAt = max(ready, *freeAt) + d
	return *freeAt
}

// submit serves one request arriving at r.Time and returns its response
// latency: reads sense on the die then cross the bus, writes cross the bus
// then program, GC occupies its die from the write that triggered it.
func (d *refDevice) submit(r trace.Record) (sim.Time, error) {
	ps := int64(d.cfg.PageSize)
	var done sim.Time
	for lpn := r.Offset / ps; lpn*ps < r.Offset+int64(r.Size); lpn++ {
		k := ftl.Key{Tenant: r.Tenant, LPN: lpn}
		var end sim.Time
		if r.Op == trace.Read {
			a, err := d.ftl.MapRead(k)
			if err != nil {
				return 0, err
			}
			sensed := hold(&d.dieFree[d.cfg.DieID(a)], r.Time, d.cfg.ReadLatency)
			end = hold(&d.busFree[a.Channel], sensed, d.cfg.XferLatency)
		} else {
			a, gc, err := d.ftl.MapWrite(k)
			if err != nil {
				return 0, err
			}
			moved := hold(&d.busFree[a.Channel], r.Time, d.cfg.XferLatency)
			end = hold(&d.dieFree[d.cfg.DieID(a)], moved, d.cfg.WriteLatency)
			if gc != nil {
				hold(&d.dieFree[d.cfg.DieID(gc.VictimAddr)], r.Time, gc.DieTime)
			}
		}
		done = max(done, end)
	}
	return done - r.Time, nil
}

// sparseTrace is a seeded trace of 1..3-page reads and writes over a small
// working set, spaced widely enough (gap on average) that operations seldom
// or never meet on a resource.
func sparseTrace(cfg nand.Config, seed int64, n int, gap sim.Time) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := make(trace.Trace, n)
	var at sim.Time
	for i := range tr {
		at += gap/2 + sim.Time(rng.Int63n(int64(gap)))
		op := trace.Read
		if rng.Intn(2) == 0 {
			op = trace.Write
		}
		tr[i] = trace.Record{
			Time: at, Tenant: rng.Intn(2), Op: op,
			Offset: int64(rng.Intn(256)) * int64(cfg.PageSize),
			Size:   int32((1 + rng.Intn(3)) * cfg.PageSize),
		}
	}
	return tr
}

// perRequest replays tr on a fresh ssd.Device and returns every request's
// latency beside the device's result.
func perRequest(t *testing.T, cfg nand.Config, tr trace.Trace) ([]sim.Time, ssd.Result) {
	t.Helper()
	d, err := ssd.New(cfg, ssd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lats := make([]sim.Time, len(tr))
	for i, r := range tr {
		i, r := i, r
		d.Engine().Schedule(r.Time, func() {
			if err := d.Submit(r, ssd.CompleterFunc(func(lat sim.Time) { lats[i] = lat })); err != nil {
				t.Error(err)
			}
		})
	}
	d.Engine().Run()
	return lats, d.Snapshot(len(tr))
}

// On traces where nothing ever waits, the reference model and the event-
// driven device agree on every request's latency, and Device.Run agrees with
// both in total.
func TestReferenceDeviceMatchesUncontendedRuns(t *testing.T) {
	cfg := nand.TinyConfig()
	matched := 0
	for seed := int64(1); seed <= 20; seed++ {
		tr := sparseTrace(cfg, seed, 300, 2*sim.Millisecond)
		lats, res := perRequest(t, cfg, tr)
		if res.Conflicts != 0 {
			continue // the models are allowed to differ here
		}
		matched++
		ref, err := newRefDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var total sim.Time
		for i, r := range tr {
			got, err := ref.submit(r)
			if err != nil {
				t.Fatal(err)
			}
			if got != lats[i] {
				t.Fatalf("seed %d request %d (%+v): reference latency %v, device %v", seed, i, r, got, lats[i])
			}
			total += got
		}
		d, err := ssd.New(cfg, ssd.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		run, err := d.Run(tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sum := run.Device.Read.Sum + run.Device.Write.Sum; sum != total || run.Conflicts != 0 {
			t.Fatalf("seed %d: Device.Run totals %v with %d conflicts, reference %v with none", seed, sum, run.Conflicts, total)
		}
	}
	if matched < 10 {
		t.Fatalf("only %d of 20 seeds ran without a conflict; the traces are too dense to test anything", matched)
	}
}

// Under contention the two arbitrate differently (dispatch order against
// arrival-at-the-resource order), so nothing is asserted: the comparison is
// reported for the record.
func TestReferenceDeviceOnContendedRunsReport(t *testing.T) {
	cfg := nand.TinyConfig()
	for _, gap := range []sim.Time{200 * sim.Microsecond, 50 * sim.Microsecond} {
		tr := sparseTrace(cfg, 1, 2000, gap)
		lats, res := perRequest(t, cfg, tr)
		ref, err := newRefDevice(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var devTotal, refTotal sim.Time
		equal, below := 0, 0
		for i, r := range tr {
			got, err := ref.submit(r)
			if err != nil {
				t.Fatal(err)
			}
			devTotal += lats[i]
			refTotal += got
			switch {
			case got == lats[i]:
				equal++
			case got < lats[i]:
				below++
			}
		}
		t.Logf("mean gap %v: %d conflicts; total latency device %v, reference %v (%.3fx); per request %d equal, %d reference lower, %d reference higher",
			gap, res.Conflicts, devTotal, refTotal, float64(refTotal)/float64(devTotal),
			equal, below, len(tr)-equal-below)
	}
}

// BenchmarkReferenceFloor measures, on the golden-replay mix (write ratios
// 0.9/0.1/0.8/0.2 at 8 k IOPS, seasoned evaluation geometry, static Shared),
// what a request costs the host with no event machinery at all (reference)
// and with it (device). The difference is what the engine and the resource
// queues cost; the reference figure is the floor no event-core work can go
// below.
func BenchmarkReferenceFloor(b *testing.B) {
	cfg := nand.EvalConfig()
	mix := workload.MixSpec{Requests: 100000, IOPS: 8000, Seed: 3}
	for _, wr := range []float64{0.9, 0.1, 0.8, 0.2} {
		mix.Tenants = append(mix.Tenants, workload.TenantSpec{WriteRatio: wr, Share: 0.25})
	}
	tr, err := mix.Build(cfg.PageSize)
	if err != nil {
		b.Fatal(err)
	}
	season := simrun.DefaultSeasoning()
	perReq := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr)), "ns/req")
	}
	b.Run("reference", func(b *testing.B) {
		var total sim.Time
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ref, err := newRefDevice(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := ref.ftl.Season(season.ValidFrac, season.FreeBlocks); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, r := range tr {
				lat, err := ref.submit(r)
				if err != nil {
					b.Fatal(err)
				}
				total += lat
			}
		}
		perReq(b)
		b.ReportMetric(total.Micros()/float64(b.N*len(tr)), "sim-us/req")
	})
	b.Run("device", func(b *testing.B) {
		var total sim.Time
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d, err := ssd.New(cfg, ssd.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if err := d.FTL().Season(season.ValidFrac, season.FreeBlocks); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			res, err := d.Run(tr, nil)
			if err != nil {
				b.Fatal(err)
			}
			total += res.Device.Read.Sum + res.Device.Write.Sum
		}
		perReq(b)
		b.ReportMetric(total.Micros()/float64(b.N*len(tr)), "sim-us/req")
	})
}
