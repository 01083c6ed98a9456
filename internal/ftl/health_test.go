package ftl

import (
	"testing"

	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
)

func healthFTL(t *testing.T) (*FTL, *nand.Health, nand.Config) {
	t.Helper()
	cfg := nand.TinyConfig()
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := nand.NewHealth(cfg, &nand.FaultPlan{Seed: 1})
	f.SetHealth(h)
	return f, h, cfg
}

// TestPlaceSkipsDeadDie pins that static placement never lands on a dead die.
func TestPlaceSkipsDeadDie(t *testing.T) {
	f, _, cfg := healthFTL(t)
	// Tenant 0 confined to channel 2; kill the channel's first die.
	if err := f.SetTenantChannels(0, []int{2}); err != nil {
		t.Fatal(err)
	}
	dead := 2 * cfg.DiesPerChannel()
	f.FailDie(dead)
	for lpn := int64(0); lpn < 64; lpn++ {
		a, _, err := f.MapWrite(Key{Tenant: 0, LPN: lpn})
		if err != nil {
			t.Fatal(err)
		}
		if got := cfg.DieID(a); got == dead {
			t.Fatalf("LPN %d placed on dead die %d", lpn, dead)
		}
	}
}

// TestPlaceSpillsWhenChannelDead pins the last-resort redirect: a tenant
// whose whole channel set is dead still writes, onto live dies elsewhere.
func TestPlaceSpillsWhenChannelDead(t *testing.T) {
	f, h, cfg := healthFTL(t)
	if err := f.SetTenantChannels(0, []int{1}); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < cfg.DiesPerChannel(); d++ {
		f.FailDie(1*cfg.DiesPerChannel() + d)
	}
	a, _, err := f.MapWrite(Key{Tenant: 0, LPN: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Channel == 1 {
		t.Fatalf("write landed on dead channel 1 (%v)", a)
	}
	if h.DieDead(cfg.DieID(a)) {
		t.Fatalf("write landed on dead die (%v)", a)
	}
}

// TestDynamicAllocSkipsDeadDie covers the dynamic arm's live-die filter.
func TestDynamicAllocSkipsDeadDie(t *testing.T) {
	f, _, cfg := healthFTL(t)
	f.SetTenantMode(0, DynamicAlloc)
	if err := f.SetTenantChannels(0, []int{3}); err != nil {
		t.Fatal(err)
	}
	dead := 3 * cfg.DiesPerChannel()
	f.FailDie(dead)
	for lpn := int64(0); lpn < 32; lpn++ {
		a, _, err := f.MapWrite(Key{Tenant: 0, LPN: lpn})
		if err != nil {
			t.Fatal(err)
		}
		if cfg.DieID(a) == dead {
			t.Fatalf("dynamic placement used dead die %d", dead)
		}
	}
}

// TestFailDieRebuildsMappings writes through a die, kills it, and checks
// every logical page is remapped off it deterministically.
func TestFailDieRebuildsMappings(t *testing.T) {
	f, h, cfg := healthFTL(t)
	const pages = 512
	for lpn := int64(0); lpn < pages; lpn++ {
		if _, _, err := f.MapWrite(Key{Tenant: 0, LPN: lpn}); err != nil {
			t.Fatal(err)
		}
	}
	victim := 0
	before := 0
	for lpn := int64(0); lpn < pages; lpn++ {
		a, ok := f.Lookup(Key{Tenant: 0, LPN: lpn})
		if !ok {
			t.Fatalf("LPN %d unmapped", lpn)
		}
		if cfg.DieID(a) == victim {
			before++
		}
	}
	if before == 0 {
		t.Fatal("no pages on the victim die; test is vacuous")
	}
	rebuilt, perDie := f.FailDie(victim)
	if rebuilt != before {
		t.Errorf("rebuilt %d pages, want %d", rebuilt, before)
	}
	if perDie[victim] != 0 {
		t.Error("rebuild charged time on the dead die")
	}
	var charged bool
	for d, tm := range perDie {
		if tm > 0 && d != victim {
			charged = true
		}
	}
	if !charged {
		t.Error("rebuild charged no destination die time")
	}
	for lpn := int64(0); lpn < pages; lpn++ {
		a, ok := f.Lookup(Key{Tenant: 0, LPN: lpn})
		if !ok {
			t.Fatalf("LPN %d lost its mapping after FailDie", lpn)
		}
		if cfg.DieID(a) == victim {
			t.Fatalf("LPN %d still mapped to dead die", lpn)
		}
	}
	if h.DieFailures != 1 {
		t.Errorf("DieFailures = %d, want 1", h.DieFailures)
	}
	// Idempotent.
	if again, _ := f.FailDie(victim); again != 0 {
		t.Errorf("second FailDie rebuilt %d pages, want 0", again)
	}
}

// TestRetireBlockRelocatesAndQuarantines retires the active block of a plane
// and checks its pages move, it never returns to circulation, and popFree
// skips retired fresh blocks.
func TestRetireBlockRelocatesAndQuarantines(t *testing.T) {
	f, h, cfg := healthFTL(t)
	// Confine tenant 0 to channel 0 statically and fill a bit.
	if err := f.SetTenantChannels(0, []int{0}); err != nil {
		t.Fatal(err)
	}
	for lpn := int64(0); lpn < int64(cfg.PagesPerBlock*2); lpn++ {
		if _, _, err := f.MapWrite(Key{Tenant: 0, LPN: lpn}); err != nil {
			t.Fatal(err)
		}
	}
	// Find a plane with an active block.
	plane := -1
	for i := range f.planes {
		if f.planes[i].active != -1 && f.blockAt(&f.planes[i], f.planes[i].active).validCount > 0 {
			plane = i
			break
		}
	}
	if plane == -1 {
		t.Fatal("no active block found")
	}
	victim := f.planes[plane].active
	valid := int(f.blockAt(&f.planes[plane], victim).validCount)
	moved, dieTime := f.RetireBlock(plane, victim)
	if moved != valid {
		t.Errorf("moved %d pages, want %d", moved, valid)
	}
	if want := sim.Time(moved) * (cfg.ReadLatency + cfg.WriteLatency); dieTime != want {
		t.Errorf("dieTime %v, want %v", dieTime, want)
	}
	if !h.BlockRetired(plane, victim) {
		t.Error("block not marked retired")
	}
	if f.planes[plane].active == victim {
		t.Error("retired block still active")
	}
	// Retiring a fresh (never-used) block makes popFree skip it.
	p := &f.planes[plane]
	fresh := p.nextFresh
	f.RetireBlock(plane, fresh)
	id, ok := f.popFree(p, plane)
	if !ok || id == fresh {
		t.Errorf("popFree returned retired fresh block %d (ok=%v)", id, ok)
	}
	// Idempotent.
	if again, _ := f.RetireBlock(plane, victim); again != 0 {
		t.Errorf("second RetireBlock moved %d pages, want 0", again)
	}
}
