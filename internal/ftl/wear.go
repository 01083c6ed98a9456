package ftl

import "ssdkeeper/internal/sim"

// Static wear leveling (the third classic FTL duty, alongside mapping and
// GC): dynamic wear leveling alone — always writing into free blocks —
// cannot touch blocks pinned under cold data, whose erase counts stall while
// hot blocks churn. When a plane's erase spread exceeds the configured
// threshold, the coldest closed block's valid pages are migrated into the
// write stream and the block is erased, so its under-erased cells re-enter
// circulation.

// levelWear runs one wear-leveling pass on a plane if the spread warrants
// it, returning the pages moved and the extra die time (0, 0 otherwise).
// Called from collect, after a GC pass has refreshed the free pool.
func (f *FTL) levelWear(planeID int) (moved int, dieTime sim.Time) {
	if f.cfg.WearThreshold <= 0 {
		return 0, 0
	}
	p := &f.planes[planeID]
	if len(p.full) == 0 || p.blocks == nil {
		return 0, 0
	}

	// Spread is measured over all materialized blocks; the migration
	// victim must be a closed block (the active block and free blocks
	// are already in circulation).
	var maxErase int32
	for _, b := range p.blocks {
		if b != nil && b.erases > maxErase {
			maxErase = b.erases
		}
	}
	victimIdx := -1
	var victimErase int32
	for i, id := range p.full {
		e := f.blockAt(p, id).erases
		if victimIdx == -1 || e < victimErase {
			victimIdx, victimErase = i, e
		}
	}
	if victimIdx == -1 || int(maxErase-victimErase) < f.cfg.WearThreshold {
		return 0, 0
	}

	victimID := p.full[victimIdx]
	p.full = append(p.full[:victimIdx], p.full[victimIdx+1:]...)
	victim := f.blockAt(p, victimID)
	for page := 0; page < f.cfg.PagesPerBlock; page++ {
		if victim.ownerAt(page) == 0 {
			continue
		}
		if err := f.relocate(planeID, victim, page); err != nil {
			// Out of space mid-migration: put the victim back and
			// charge only what was done, exactly as GC does.
			p.full = append(p.full, victimID)
			f.wlMoved += uint64(moved)
			return moved, sim.Time(moved) * (f.cfg.ReadLatency + f.cfg.WriteLatency)
		}
		moved++
	}
	f.eraseBlock(p, victimID)
	f.wlRuns++
	f.wlMoved += uint64(moved)
	return moved, sim.Time(moved)*(f.cfg.ReadLatency+f.cfg.WriteLatency) + f.cfg.EraseLatency
}
