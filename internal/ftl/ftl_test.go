package ftl

import (
	"math"
	"testing"
	"testing/quick"

	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
)

// fakeLoad steers dynamic allocation in tests.
type fakeLoad struct {
	ch  map[int]sim.Time
	die map[int]sim.Time
}

func (f fakeLoad) ChannelLoad(c int) sim.Time { return f.ch[c] }
func (f fakeLoad) DieLoad(d int) sim.Time     { return f.die[d] }

func mustFTL(t *testing.T, cfg nand.Config, load Load) *FTL {
	t.Helper()
	f, err := New(cfg, load)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestStaticAllocStripesAcrossTenantChannels(t *testing.T) {
	cfg := nand.TinyConfig()
	f := mustFTL(t, cfg, nil)
	if err := f.SetTenantChannels(0, []int{2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	f.SetTenantMode(0, StaticAlloc)
	want := []int{2, 3, 4, 2, 3, 4}
	for lpn, wantCh := range want {
		a, gc, err := f.MapWrite(Key{Tenant: 0, LPN: int64(lpn)})
		if err != nil {
			t.Fatal(err)
		}
		if gc != nil {
			t.Fatal("unexpected GC on fresh device")
		}
		if a.Channel != wantCh {
			t.Errorf("lpn %d on channel %d, want %d", lpn, a.Channel, wantCh)
		}
	}
}

func TestStaticAllocSpreadsOverDiesAndPlanes(t *testing.T) {
	cfg := nand.TinyConfig()
	f := mustFTL(t, cfg, nil)
	if err := f.SetTenantChannels(0, []int{0}); err != nil {
		t.Fatal(err)
	}
	// One channel, 2 dies, 4 planes: LPNs 0..7 should hit 8 distinct
	// (die, plane) pairs before reusing any.
	seen := map[[2]int]bool{}
	for lpn := int64(0); lpn < 8; lpn++ {
		a, _, err := f.MapWrite(Key{Tenant: 0, LPN: lpn})
		if err != nil {
			t.Fatal(err)
		}
		if a.Channel != 0 {
			t.Fatalf("write escaped the tenant's channel set: %v", a)
		}
		key := [2]int{cfg.DieID(a), a.Plane}
		if seen[key] {
			t.Errorf("lpn %d reuses die/plane %v before full coverage", lpn, key)
		}
		seen[key] = true
	}
}

func TestDynamicAllocChoosesLeastLoadedChannelAndDie(t *testing.T) {
	cfg := nand.TinyConfig()
	load := fakeLoad{
		ch:  map[int]sim.Time{0: 500, 1: 100, 2: 900},
		die: map[int]sim.Time{2: 50, 3: 10}, // dies of channel 1
	}
	f := mustFTL(t, cfg, load)
	if err := f.SetTenantChannels(0, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.SetTenantMode(0, DynamicAlloc)
	a, _, err := f.MapWrite(Key{Tenant: 0, LPN: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Channel != 1 {
		t.Errorf("dynamic write on channel %d, want least-loaded 1", a.Channel)
	}
	if got := cfg.DieID(a); got != 3 {
		t.Errorf("dynamic write on die %d, want least-loaded 3", got)
	}
}

func TestDynamicAllocRotatesPlanes(t *testing.T) {
	cfg := nand.TinyConfig()
	f := mustFTL(t, cfg, nil)
	if err := f.SetTenantChannels(0, []int{0}); err != nil {
		t.Fatal(err)
	}
	f.SetTenantMode(0, DynamicAlloc)
	planes := map[int]bool{}
	for lpn := int64(0); lpn < int64(cfg.PlanesPerDie); lpn++ {
		a, _, err := f.MapWrite(Key{Tenant: 0, LPN: lpn})
		if err != nil {
			t.Fatal(err)
		}
		planes[a.Plane] = true
	}
	if len(planes) != cfg.PlanesPerDie {
		t.Errorf("dynamic writes used %d planes, want %d", len(planes), cfg.PlanesPerDie)
	}
}

// TestDynamicAllocWithoutLoadPinsFirstChannelAndDie: with no Load wired every
// candidate ties at zero, and ties go to the first one scanned — not round
// the set.
func TestDynamicAllocWithoutLoadPinsFirstChannelAndDie(t *testing.T) {
	cfg := nand.TinyConfig()
	f := mustFTL(t, cfg, nil)
	if err := f.SetTenantChannels(0, []int{2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	f.SetTenantMode(0, DynamicAlloc)
	for lpn := int64(0); lpn < 16; lpn++ {
		a, _, err := f.MapWrite(Key{Tenant: 0, LPN: lpn})
		if err != nil {
			t.Fatal(err)
		}
		if a.Channel != 2 || a.Chip != 0 || a.Die != 0 {
			t.Fatalf("lpn %d on channel %d chip %d die %d, want the set's first channel 2 and its first die",
				lpn, a.Channel, a.Chip, a.Die)
		}
	}
}

func TestOverwriteInvalidatesOldPage(t *testing.T) {
	cfg := nand.TinyConfig()
	f := mustFTL(t, cfg, nil)
	k := Key{Tenant: 0, LPN: 42}
	a1, _, err := f.MapWrite(k)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := f.MapWrite(k)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Error("overwrite mapped to the same physical page")
	}
	got, ok := f.Lookup(k)
	if !ok || got != a2 {
		t.Errorf("lookup = %v,%v, want %v", got, ok, a2)
	}
	if c := f.Counters(); c.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", c.Invalidations)
	}
}

func TestMapReadPreloadsUnwrittenData(t *testing.T) {
	cfg := nand.TinyConfig()
	f := mustFTL(t, cfg, nil)
	k := Key{Tenant: 1, LPN: 99}
	a, err := f.MapRead(k)
	if err != nil {
		t.Fatal(err)
	}
	// Second read must hit the same page.
	b, err := f.MapRead(k)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("repeated read moved: %v then %v", a, b)
	}
	c := f.Counters()
	if c.Preloads != 1 {
		t.Errorf("preloads = %d, want 1", c.Preloads)
	}
	if c.Writes != 0 {
		t.Errorf("preload counted as write")
	}
}

func TestMapReadFollowsMappingAfterChannelChange(t *testing.T) {
	cfg := nand.TinyConfig()
	f := mustFTL(t, cfg, nil)
	if err := f.SetTenantChannels(0, []int{0}); err != nil {
		t.Fatal(err)
	}
	k := Key{Tenant: 0, LPN: 5}
	wrote, _, err := f.MapWrite(k)
	if err != nil {
		t.Fatal(err)
	}
	// Re-allocate the tenant elsewhere; reads must still find old data.
	if err := f.SetTenantChannels(0, []int{6, 7}); err != nil {
		t.Fatal(err)
	}
	got, err := f.MapRead(k)
	if err != nil {
		t.Fatal(err)
	}
	if got != wrote {
		t.Errorf("read went to %v, want original %v", got, wrote)
	}
	// New writes use the new set.
	a, _, err := f.MapWrite(Key{Tenant: 0, LPN: 100})
	if err != nil {
		t.Fatal(err)
	}
	if a.Channel != 6 && a.Channel != 7 {
		t.Errorf("new write on channel %d, want 6 or 7", a.Channel)
	}
}

func TestSetTenantChannelsRejectsOutOfRange(t *testing.T) {
	f := mustFTL(t, nand.TinyConfig(), nil)
	if err := f.SetTenantChannels(0, []int{8}); err == nil {
		t.Error("channel 8 accepted on an 8-channel device")
	}
	if err := f.SetTenantChannels(0, []int{-1}); err == nil {
		t.Error("negative channel accepted")
	}
}

// gcConfig returns a tiny geometry that forces GC quickly: 1 channel,
// 1 die, 1 plane, 8 blocks of 4 pages.
func gcConfig() nand.Config {
	c := nand.TinyConfig()
	c.Channels = 1
	c.ChipsPerChannel = 1
	c.DiesPerChip = 1
	c.PlanesPerDie = 1
	c.BlocksPerPlane = 8
	c.PagesPerBlock = 4
	c.GCThreshold = 0.15 // low water = 1 free block
	return c
}

func TestGCReclaimsInvalidatedSpace(t *testing.T) {
	f := mustFTL(t, gcConfig(), nil)
	// Overwrite a small working set far beyond physical capacity; GC
	// must keep reclaiming or MapWrite would fail.
	sawGC := false
	for round := 0; round < 50; round++ {
		for lpn := int64(0); lpn < 8; lpn++ {
			_, gc, err := f.MapWrite(Key{Tenant: 0, LPN: lpn})
			if err != nil {
				t.Fatalf("round %d lpn %d: %v", round, lpn, err)
			}
			if gc != nil {
				sawGC = true
				if gc.DieTime <= 0 {
					t.Error("GC plan with non-positive die time")
				}
				if gc.Moved < 0 || gc.Moved > 4 {
					t.Errorf("GC moved %d pages from a 4-page block", gc.Moved)
				}
			}
		}
	}
	if !sawGC {
		t.Fatal("GC never triggered despite 25x overwrite pressure")
	}
	c := f.Counters()
	if c.GCRuns == 0 || c.GCErases == 0 {
		t.Errorf("counters show no GC: %+v", c)
	}
	// All 8 logical pages must still resolve.
	for lpn := int64(0); lpn < 8; lpn++ {
		if _, ok := f.Lookup(Key{Tenant: 0, LPN: lpn}); !ok {
			t.Errorf("lpn %d lost after GC", lpn)
		}
	}
}

func TestGCPreservesMappingIntegrity(t *testing.T) {
	f := mustFTL(t, gcConfig(), nil)
	// Interleave writes of two tenants and verify mappings stay
	// mutually distinct through heavy GC churn.
	for round := 0; round < 40; round++ {
		for lpn := int64(0); lpn < 4; lpn++ {
			for tenant := 0; tenant < 2; tenant++ {
				if _, _, err := f.MapWrite(Key{Tenant: tenant, LPN: lpn}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	seen := map[nand.Addr]Key{}
	for tenant := 0; tenant < 2; tenant++ {
		for lpn := int64(0); lpn < 4; lpn++ {
			k := Key{Tenant: tenant, LPN: lpn}
			a, ok := f.Lookup(k)
			if !ok {
				t.Fatalf("%v unmapped", k)
			}
			if prev, dup := seen[a]; dup {
				t.Fatalf("PPN %v owned by both %v and %v", a, prev, k)
			}
			seen[a] = k
		}
	}
}

func TestWearAccounting(t *testing.T) {
	f := mustFTL(t, gcConfig(), nil)
	for round := 0; round < 60; round++ {
		for lpn := int64(0); lpn < 8; lpn++ {
			if _, _, err := f.MapWrite(Key{Tenant: 0, LPN: lpn}); err != nil {
				t.Fatal(err)
			}
		}
	}
	w := f.Wear()
	if w.TotalErases == 0 {
		t.Fatal("no erases recorded")
	}
	if w.MaxErases < w.MinErases {
		t.Errorf("max %d < min %d", w.MaxErases, w.MinErases)
	}
	if w.MeanErases <= 0 {
		t.Errorf("mean erases %v", w.MeanErases)
	}
	if w.Blocks == 0 || w.Blocks > 8 {
		t.Errorf("blocks = %d", w.Blocks)
	}
}

func TestDeviceFullWithoutReclaimableSpaceErrors(t *testing.T) {
	f := mustFTL(t, gcConfig(), nil)
	// Unique LPNs: nothing invalidated, so GC has nothing to reclaim and
	// the device must eventually report exhaustion rather than loop.
	var lastErr error
	for lpn := int64(0); lpn < 64; lpn++ {
		_, _, err := f.MapWrite(Key{Tenant: 0, LPN: lpn})
		if err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == nil {
		t.Fatal("32-page device absorbed 64 unique pages without error")
	}
}

// Property: after any sequence of writes over a small LPN space, every
// written key resolves, and no two keys share a physical page.
func TestMappingBijectionProperty(t *testing.T) {
	cfg := gcConfig()
	f := func(ops []uint8) bool {
		ftl, err := New(cfg, nil)
		if err != nil {
			return false
		}
		written := map[Key]bool{}
		for _, op := range ops {
			k := Key{Tenant: int(op >> 6 & 1), LPN: int64(op & 7)}
			if _, _, err := ftl.MapWrite(k); err != nil {
				return false // 16 distinct keys max; must always fit
			}
			written[k] = true
		}
		seen := map[nand.Addr]bool{}
		for k := range written {
			a, ok := ftl.Lookup(k)
			if !ok || seen[a] {
				return false
			}
			seen[a] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPageModeString(t *testing.T) {
	if StaticAlloc.String() != "static" || DynamicAlloc.String() != "dynamic" {
		t.Error("page mode strings wrong")
	}
}

func TestTenantDefaultsAllChannelsStatic(t *testing.T) {
	cfg := nand.TinyConfig()
	f := mustFTL(t, cfg, nil)
	if got := len(f.TenantChannels(7)); got != cfg.Channels {
		t.Errorf("default channel set size %d, want %d", got, cfg.Channels)
	}
	if f.TenantMode(7) != StaticAlloc {
		t.Error("default mode should be static")
	}
	// Empty set resets to all channels.
	if err := f.SetTenantChannels(7, []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := f.SetTenantChannels(7, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(f.TenantChannels(7)); got != cfg.Channels {
		t.Errorf("reset channel set size %d, want %d", got, cfg.Channels)
	}
}

// A Reset FTL must be indistinguishable from a fresh one: same placements,
// same GC activity, same wear, for the same request sequence.
func TestFTLResetBehavesFresh(t *testing.T) {
	cfg := gcConfig()
	drive := func(f *FTL) (Counters, WearStats) {
		if err := f.Season(0.5, 5); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			k := Key{Tenant: 0, LPN: int64(i % 8)}
			if _, _, err := f.MapWrite(k); err != nil {
				t.Fatal(err)
			}
		}
		return f.Counters(), f.Wear()
	}
	reused := mustFTL(t, cfg, nil)
	first, firstWear := drive(reused)
	reused.Reset()
	second, secondWear := drive(reused)
	if first != second {
		t.Errorf("counters diverge after Reset: %+v vs %+v", first, second)
	}
	if firstWear != secondWear {
		t.Errorf("wear diverges after Reset: %+v vs %+v", firstWear, secondWear)
	}
	fresh := mustFTL(t, cfg, nil)
	third, thirdWear := drive(fresh)
	if second != third {
		t.Errorf("reset FTL diverges from fresh: %+v vs %+v", second, third)
	}
	if secondWear != thirdWear {
		t.Errorf("reset FTL wear diverges from fresh: %+v vs %+v", secondWear, thirdWear)
	}
}

func TestFTLResetClearsBindings(t *testing.T) {
	cfg := nand.TinyConfig()
	f := mustFTL(t, cfg, nil)
	if err := f.SetTenantChannels(1, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	f.SetTenantMode(1, DynamicAlloc)
	f.Reset()
	if got := f.TenantChannels(1); len(got) != cfg.Channels {
		t.Errorf("tenant channels after reset = %v, want all %d", got, cfg.Channels)
	}
	if f.TenantMode(1) != StaticAlloc {
		t.Error("tenant mode survived reset")
	}
}

// A page's owner packs into one word that is never 0 for a valid page and
// unpacks to the key it was packed from, at every corner of the address space.
func TestOwnerPacking(t *testing.T) {
	keys := []Key{{Tenant: coldTenant, LPN: nand.MaxTotalPages - 1}}
	for _, tenant := range []int{coldTenant, 0, MaxTenants - 1} {
		for _, lpn := range []int64{0, MaxLPN - 1} {
			keys = append(keys, Key{Tenant: tenant, LPN: lpn})
		}
	}
	seen := map[owner]Key{}
	for _, k := range keys {
		o := packOwner(k)
		if o == 0 {
			t.Errorf("%+v packs to 0, the invalid owner", k)
		}
		if got := o.key(); got != k {
			t.Errorf("%+v packs to %#x, unpacks to %+v", k, uint64(o), got)
		}
		if prev, dup := seen[o]; dup {
			t.Errorf("%+v and %+v pack to the same owner %#x", prev, k, uint64(o))
		}
		seen[o] = k
	}
}

// BenchmarkFTLSeason is the device set-up of every replay session: a seasoned
// evaluation device built from New, one restored by Reset and re-seasoned,
// and one rewound to its checkpoint after a run dirtied some of its blocks.
// scripts/bench_gate.sh holds every case's B/op and allocs/op at ceilings.
func BenchmarkFTLSeason(b *testing.B) {
	cfg := nand.EvalConfig()
	season := func(b *testing.B, f *FTL) {
		if err := f.Season(0.5, 5); err != nil {
			b.Fatal(err)
		}
	}
	build := func(b *testing.B) *FTL {
		f, err := New(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		season(b, f)
		return f
	}
	b.Run("new", func(b *testing.B) {
		build(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			build(b)
		}
	})
	b.Run("reset", func(b *testing.B) {
		f := build(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Reset()
			season(b, f)
		}
	})
	b.Run("rewind", func(b *testing.B) {
		f := build(b)
		if err := f.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		// A tenant overwriting one page on each of eight planes until
		// their GC runs: the active blocks, the GC victims and the blocks
		// the victims' pages move to go dirty.
		dirty := func() {
			for i := 0; i < 8*4*cfg.PagesPerBlock; i++ {
				if _, _, err := f.MapWrite(Key{Tenant: 0, LPN: int64(i % 8)}); err != nil {
					b.Fatal(err)
				}
			}
		}
		dirty()
		if f.Counters().GCRuns == 0 {
			b.Fatal("the dirtying writes ran no GC")
		}
		f.Rewind()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dirty()
			f.Rewind()
		}
	})
}

// Seasoning writes counters, not reverse-map words: a freshly seasoned
// device holds no owner storage.
func TestSeasonStoresNoOwners(t *testing.T) {
	f := mustFTL(t, nand.EvalConfig(), nil)
	if err := f.Season(0.5, 5); err != nil {
		t.Fatal(err)
	}
	if n := OwnerWords(f); n != 0 {
		t.Fatalf("freshly seasoned device holds %d owner words, want 0", n)
	}
	if got := f.LiveColdPages(); got == 0 {
		t.Fatal("seasoned device has no live cold pages")
	}
}

// Season's layout: block i of the fill blocks holds the binomial
// (i+0.5)/fill quantile of live pages, first in the block, on every plane
// alike, and a plane's live total is within a page per block of its mean.
func TestSeasonLayout(t *testing.T) {
	cfg := nand.EvalConfig()
	for _, frac := range []float64{0, 0.25, 0.5, 0.9} {
		f := mustFTL(t, cfg, nil)
		if err := f.Season(frac, 5); err != nil {
			t.Fatal(err)
		}
		fill := cfg.BlocksPerPlane - 5
		var lpn int64
		for planeID := range f.planes {
			p := &f.planes[planeID]
			if len(p.full) != fill {
				t.Fatalf("frac %v plane %d: %d full blocks, want %d", frac, planeID, len(p.full), fill)
			}
			total := 0
			for i, id := range p.full {
				b := f.blockAt(p, id)
				live := int(b.validCount)
				if want := f.blockAt(&f.planes[0], f.planes[0].full[i]).validCount; int32(live) != want {
					t.Fatalf("frac %v plane %d block %d: %d live pages, plane 0 has %d", frac, planeID, i, live, want)
				}
				if i > 0 && live < int(f.blockAt(p, p.full[i-1]).validCount) {
					t.Errorf("frac %v plane %d: block %d has fewer live pages than block %d", frac, planeID, i, i-1)
				}
				if b.writePtr != int32(cfg.PagesPerBlock) {
					t.Errorf("frac %v plane %d block %d: write pointer %d, want full", frac, planeID, i, b.writePtr)
				}
				for page := 0; page < cfg.PagesPerBlock; page++ {
					o, want := b.ownerAt(page), owner(0)
					if page < live {
						want = packOwner(Key{Tenant: coldTenant, LPN: lpn})
						lpn++
					}
					if o != want {
						t.Fatalf("frac %v plane %d block %d page %d: owner %#x, want %#x", frac, planeID, i, page, uint64(o), uint64(want))
					}
				}
				total += live
			}
			if mean := frac * float64(cfg.PagesPerBlock*fill); math.Abs(float64(total)-mean) > float64(fill) {
				t.Errorf("frac %v plane %d: %d live pages, want within %d of %.1f", frac, planeID, total, fill, mean)
			}
		}
		if got := f.LiveColdPages(); int64(got) != lpn {
			t.Errorf("frac %v: %d live cold pages, layout holds %d", frac, got, lpn)
		}
	}
	// Binomial(32, 0.5) at the 59 midpoints: the middle block holds the
	// median, 16, and the extremes hold 9 and 23.
	f := mustFTL(t, cfg, nil)
	if err := f.Season(0.5, 5); err != nil {
		t.Fatal(err)
	}
	p := &f.planes[0]
	for _, c := range []struct{ block, live int }{{0, 9}, {29, 16}, {58, 23}} {
		if got := f.blockAt(p, p.full[c.block]).validCount; int(got) != c.live {
			t.Errorf("block %d of 59: %d live pages, want %d", c.block, got, c.live)
		}
	}
}
