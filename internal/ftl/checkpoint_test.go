package ftl_test

// External test package: the loads run on ssd.Device, which imports ftl.
// StateDiff (export_test.go) compares the FTLs' internals.

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ssdkeeper/internal/ftl"
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
)

// rewindConfig is a device small enough that a few thousand page writes run
// GC and wear leveling many times: 2 channels x 2 dies x 2 planes of 16
// blocks of 8 pages, one free block of low water, an erase spread of 2
// triggering static wear leveling.
func rewindConfig() nand.Config {
	c := nand.TinyConfig()
	c.Channels = 2
	c.ChipsPerChannel = 2
	c.DiesPerChip = 1
	c.PlanesPerDie = 2
	c.BlocksPerPlane = 16
	c.PagesPerBlock = 8
	c.GCThreshold = 0.1
	c.WearThreshold = 2
	return c
}

// Seasoned blocks hold the Binomial(8, 1/4) quantiles of live pages, so the
// first of each plane's thirteen holds none and GC erases it without a move:
// eraseBlock is the only mark such a block gets.
const (
	rewindValidFrac  = 0.25
	rewindFreeBlocks = 3
	rewindLPNs       = 64 // each tenant's working set, in pages
)

// seasonedDevice builds a device and seasons it as every test device here is.
func seasonedDevice(t *testing.T, opts ssd.Options) *ssd.Device {
	t.Helper()
	d, err := ssd.New(rewindConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.FTL().Season(rewindValidFrac, rewindFreeBlocks); err != nil {
		t.Fatal(err)
	}
	return d
}

// bind gives tenant 0 dynamic allocation (so the per-die plane cursors move)
// and pins tenant 1 to channel 1.
func bind(t *testing.T, d *ssd.Device) {
	t.Helper()
	d.FTL().SetTenantMode(0, ftl.DynamicAlloc)
	if err := d.FTL().SetTenantChannels(1, []int{1}); err != nil {
		t.Fatal(err)
	}
}

// writeHeavy is a seeded one-page-per-request load: 90 % overwrites of
// tenant 0's working set, 10 % reads of tenant 1's, one request every 50 us.
func writeHeavy(seed int64, n int) trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	page := rewindConfig().PageSize
	tr := make(trace.Trace, n)
	for i := range tr {
		r := trace.Record{Time: sim.Time(i) * 50 * sim.Microsecond, Size: int32(page), Offset: int64(rng.Intn(rewindLPNs) * page)}
		if rng.Float64() < 0.9 {
			r.Op = trace.Write
		} else {
			r.Tenant = 1
		}
		tr[i] = r
	}
	return tr
}

// run binds d, replays tr on it and returns the result.
func run(t *testing.T, d *ssd.Device, tr trace.Trace) ssd.Result {
	t.Helper()
	bind(t, d)
	res, err := d.Run(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// rewind rewinds d the way a run loop does: engine and collector first, so
// the fault plan is re-armed on an empty engine.
func rewind(d *ssd.Device) {
	d.Engine().Reset()
	d.Stats().Reset()
	d.Rewind()
}

// A rewound device must be indistinguishable from a freshly built and
// seasoned one: block by block, plane by plane, in its counters and
// mappings, and in what it does with the next trace. The loads dirty blocks
// through every mutation site — page appends, overwrites, GC and wear-
// leveling moves and erases, a die failure's rebuild, a block retirement.
func TestRewindMatchesFresh(t *testing.T) {
	faults := &nand.FaultPlan{Seed: 1, Events: []nand.FaultEvent{
		{Kind: nand.FaultRetireBlock, At: 20 * sim.Millisecond, Channel: 0, Block: 2},
		{Kind: nand.FaultDieFail, At: 60 * sim.Millisecond, Channel: 1, Die: 0},
	}}
	for _, tc := range []struct {
		name string
		opts ssd.Options
		// exercised reports what the load failed to exercise, or "".
		exercised func(ssd.Result, *ssd.Device) string
	}{
		{"gc_and_wear_leveling", ssd.Options{}, func(r ssd.Result, _ *ssd.Device) string {
			if r.FTL.GCRuns == 0 || r.FTL.WLRuns == 0 || r.FTL.GCMovedPages == 0 {
				return "no GC moves or no wear leveling"
			}
			return ""
		}},
		{"die_failure_and_retirement", ssd.Options{FaultPlan: faults}, func(r ssd.Result, d *ssd.Device) string {
			if h := d.HealthSnapshot(); h.DieFailures != 1 || h.BlocksRetired == 0 || r.FTL.GCRuns == 0 {
				return "no die failure, no retirement or no GC"
			}
			return ""
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			load := writeHeavy(1, 3000)
			reused := seasonedDevice(t, tc.opts)
			if err := reused.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			var first ssd.Result
			for round := 0; round < 2; round++ {
				res := run(t, reused, load)
				if miss := tc.exercised(res, reused); miss != "" {
					t.Fatalf("round %d: the load exercised %s", round, miss)
				}
				if round == 0 {
					first = res
				} else if !reflect.DeepEqual(res, first) {
					t.Fatalf("the load on the rewound device diverged from its first run")
				}
				rewind(reused)

				fresh := seasonedDevice(t, tc.opts)
				if d := ftl.StateDiff(reused.FTL(), fresh.FTL()); d != "" {
					t.Fatalf("round %d: rewound vs fresh: %s", round, d)
				}
				if g, w := reused.FTL().Counters(), fresh.FTL().Counters(); g != w {
					t.Fatalf("round %d: counters %+v, fresh %+v", round, g, w)
				}
				var keys []ftl.Key
				for lpn := int64(0); lpn < rewindLPNs; lpn++ {
					keys = append(keys, ftl.Key{Tenant: 0, LPN: lpn}, ftl.Key{Tenant: 1, LPN: lpn})
				}
				for lpn := int64(0); lpn < int64(reused.Config().TotalPages()); lpn++ {
					keys = append(keys, ftl.ColdKey(lpn))
				}
				for _, k := range keys {
					ga, gok := reused.FTL().Lookup(k)
					wa, wok := fresh.FTL().Lookup(k)
					if ga != wa || gok != wok {
						t.Fatalf("round %d: Lookup(%+v) = %v %v, fresh %v %v", round, k, ga, gok, wa, wok)
					}
				}

				next := writeHeavy(2, 2000)
				if g, w := run(t, reused, next), run(t, fresh, next); !reflect.DeepEqual(g, w) {
					t.Fatalf("round %d: the next trace's result on the rewound device differs from a fresh one's", round)
				}
				if g, w := reused.HealthSnapshot(), fresh.HealthSnapshot(); g != w {
					t.Fatalf("round %d: health after the next trace %+v, fresh %+v", round, g, w)
				}
				rewind(reused)
			}
		})
	}
}

// An implicitly seasoned device must behave, block by block, as one whose
// seasoned owners were written out page by page: after GC and wear-leveling
// moves out of seasoned blocks, a block retirement, a die failure's rebuild
// and each Rewind. Its owner storage must stay below the explicit one's.
func TestImplicitSeasoningMatchesExplicit(t *testing.T) {
	faults := &nand.FaultPlan{Seed: 1, Events: []nand.FaultEvent{
		{Kind: nand.FaultRetireBlock, At: 20 * sim.Millisecond, Channel: 0, Block: 2},
		{Kind: nand.FaultDieFail, At: 60 * sim.Millisecond, Channel: 1, Die: 0},
	}}
	for _, opts := range []ssd.Options{{}, {FaultPlan: faults}} {
		implicit := seasonedDevice(t, opts)
		explicit, err := ssd.New(rewindConfig(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ftl.SeasonExplicit(explicit.FTL(), rewindValidFrac, rewindFreeBlocks); err != nil {
			t.Fatal(err)
		}
		if d := ftl.StateDiff(implicit.FTL(), explicit.FTL()); d != "" {
			t.Fatalf("seasoned: implicit vs explicit: %s", d)
		}
		for _, d := range []*ssd.Device{implicit, explicit} {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		for round, load := range []trace.Trace{writeHeavy(1, 3000), writeHeavy(2, 2000)} {
			gi, ge := run(t, implicit, load), run(t, explicit, load)
			if gi.FTL.GCMovedPages == 0 || gi.FTL.WLMovedPages == 0 {
				t.Fatalf("fault plan %v round %d: no GC or wear-leveling moves", opts.FaultPlan != nil, round)
			}
			if !reflect.DeepEqual(gi, ge) {
				t.Fatalf("fault plan %v round %d: results differ", opts.FaultPlan != nil, round)
			}
			if d := ftl.StateDiff(implicit.FTL(), explicit.FTL()); d != "" {
				t.Fatalf("fault plan %v round %d: implicit vs explicit after the run: %s", opts.FaultPlan != nil, round, d)
			}
			if wi, we := ftl.OwnerWords(implicit.FTL()), ftl.OwnerWords(explicit.FTL()); wi >= we {
				t.Errorf("fault plan %v round %d: implicit device holds %d owner words, explicit %d", opts.FaultPlan != nil, round, wi, we)
			}
			rewind(implicit)
			rewind(explicit)
			if d := ftl.StateDiff(implicit.FTL(), explicit.FTL()); d != "" {
				t.Fatalf("fault plan %v round %d: implicit vs explicit after Rewind: %s", opts.FaultPlan != nil, round, d)
			}
		}
	}
}

// Checkpoint holds no mappings or counters, so it refuses a device that has
// served traffic.
func TestCheckpointRefusesTraffic(t *testing.T) {
	d := seasonedDevice(t, ssd.Options{})
	run(t, d, writeHeavy(1, 10))
	if err := d.Checkpoint(); !errors.Is(err, ftl.ErrCheckpointTraffic) {
		t.Fatalf("Checkpoint after traffic = %v, want ErrCheckpointTraffic", err)
	}
}
