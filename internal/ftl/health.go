package ftl

import (
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
)

// Health-aware routing and fault repair. All entry points are no-ops until
// SetHealth wires a *nand.Health, so an immortal device pays one nil check.
//
// Invariants the rest of the FTL relies on:
//   - a retired block is never in a plane's recycled or full list, is never
//     the active block, and popFree skips it on the fresh path — so GC and
//     wear leveling never see retired blocks and eraseBlock can stay
//     health-blind;
//   - a dead die receives no placements (place redirects them), so
//     its planes' GC never triggers again.

// redirect returns live placement coordinates for a static placement that
// computed (ch, dieInCh): the original target if its die is live, else a
// deterministic probe sequence — later dies on the same channel (staying
// inside the tenant's allocation), then the remaining channels of the set in
// set order, then any live die on the device. live=false only when every die
// is dead.
func (f *FTL) redirect(set []int, ch, dieInCh int) (newCh, newDie int, live bool) {
	h := f.health
	dpc := f.cfg.DiesPerChannel()
	if !h.DieDead(ch*dpc + dieInCh) {
		return ch, dieInCh, true
	}
	for k := 1; k < dpc; k++ {
		if d := (dieInCh + k) % dpc; !h.DieDead(ch*dpc + d) {
			return ch, d, true
		}
	}
	start := 0
	for i, c := range set {
		if c == ch {
			start = i
			break
		}
	}
	for i := 1; i <= len(set); i++ {
		c := set[(start+i)%len(set)]
		if h.LiveInChannel(c) == 0 {
			continue
		}
		for k := 0; k < dpc; k++ {
			if d := (dieInCh + k) % dpc; !h.DieDead(c*dpc + d) {
				return c, d, true
			}
		}
	}
	for c := 0; c < f.cfg.Channels; c++ {
		if h.LiveInChannel(c) == 0 {
			continue
		}
		for d := 0; d < dpc; d++ {
			if !h.DieDead(c*dpc + d) {
				return c, d, true
			}
		}
	}
	return 0, 0, false
}

// FailDie kills a device-wide die: the die is marked dead in the health
// state, and every valid logical page mapped to it is rebuilt onto live dies
// through the owning tenant's normal placement path (so the rebuild respects
// channel allocations and triggers GC where it must). Rebuild order is
// (tenant, LPN) — the mapping table's walk order — so the relocation, and
// therefore every subsequent allocation decision, is deterministic.
//
// Returns the number of pages rebuilt and the per-destination-die time the
// rebuild occupies (program per page, plus any GC the rebuild triggered);
// the device charges these on the die resources so foreground traffic queues
// behind the rebuild storm. Pages that cannot be rebuilt (device full) stay
// mapped to the dead die and remain readable in-model. Idempotent.
func (f *FTL) FailDie(die int) (rebuilt int, perDie []sim.Time) {
	if f.health == nil || f.health.DieDead(die) {
		return 0, nil
	}
	f.health.FailDie(die)

	perDie = make([]sim.Time, f.cfg.TotalDies())
	pageTime := f.cfg.ReadLatency + f.cfg.WriteLatency
	// Rebuilding while walking is safe: a rebuilt page and anything the GC
	// it triggers relocates land on live dies, so no entry still to be
	// visited changes in a way the die test below can see.
	f.table.walk(func(k Key, ppn int64) bool {
		if plane, _, _ := f.cfg.SplitPPN(ppn); plane/f.cfg.PlanesPerDie != die {
			return true
		}
		f.invalidate(ppn)
		a, gc, err := f.place(k, f.TenantMode(k.Tenant))
		if err != nil {
			return false
		}
		perDie[f.cfg.DieID(a)] += pageTime
		if gc != nil {
			perDie[gc.Plane/f.cfg.PlanesPerDie] += gc.DieTime
		}
		rebuilt++
		return true
	})
	f.probe.DieFailed(die, rebuilt)
	return rebuilt, perDie
}

// RetireBlock takes one block of one plane out of circulation: valid pages
// are relocated into the plane's write stream (the wear-leveling idiom) and
// the block never re-enters the free pool. Relocation is best-effort — if
// the plane fills mid-move the remaining pages stay mapped to the retired
// block and remain readable in-model. Returns the pages moved and the die
// time the relocation occupies. Idempotent.
func (f *FTL) RetireBlock(planeID, blockID int) (moved int, dieTime sim.Time) {
	if f.health == nil || f.health.BlockRetired(planeID, blockID) {
		return 0, 0
	}
	// Mark first: appendPage below must not re-open the victim.
	f.health.RetireBlock(planeID, blockID)
	p := &f.planes[planeID]

	for i, id := range p.recycled {
		if id == blockID {
			p.recycled = append(p.recycled[:i], p.recycled[i+1:]...)
			f.probe.BlockRetired(planeID, 0)
			return 0, 0
		}
	}
	if p.active == blockID {
		p.active = -1
	} else {
		for i, id := range p.full {
			if id == blockID {
				p.full = append(p.full[:i], p.full[i+1:]...)
				break
			}
		}
	}
	if blockID >= p.nextFresh || p.blocks == nil || p.blocks[blockID] == nil {
		// Never used: nothing to relocate; popFree will skip it.
		f.probe.BlockRetired(planeID, 0)
		return 0, 0
	}

	victim := p.blocks[blockID]
	for page := 0; page < f.cfg.PagesPerBlock && victim.validCount > 0; page++ {
		if victim.ownerAt(page) == 0 {
			continue
		}
		if err := f.relocate(planeID, victim, page); err != nil {
			break
		}
		moved++
	}
	dieTime = sim.Time(moved) * (f.cfg.ReadLatency + f.cfg.WriteLatency)
	f.probe.BlockRetired(planeID, moved)
	return moved, dieTime
}

// BlockErases returns the erase count of a block, zero if it was never
// materialized. The device's program-slowdown model keys off it.
func (f *FTL) BlockErases(planeID, blockID int) int {
	p := &f.planes[planeID]
	if p.blocks == nil || p.blocks[blockID] == nil {
		return 0
	}
	return int(p.blocks[blockID].erases)
}

// Health returns the attached health state (nil on an immortal device).
func (f *FTL) Health() *nand.Health { return f.health }
