package ftl

import (
	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
)

// GCPlan describes one garbage-collection pass on a plane: the valid pages
// moved (plane-internal copyback: a read plus a program on the same die, no
// channel bus traffic), the block erase, and any wear-leveling migration the
// pass triggered. The FTL applies the metadata effects synchronously; the
// device charges DieTime on the die's resource so foreground operations
// queue behind it.
type GCPlan struct {
	Plane      int
	VictimAddr nand.Addr // coordinates of the erased block
	Moved      int       // valid pages relocated by GC
	WearMoves  int       // valid pages relocated by static wear leveling
	DieTime    sim.Time  // total die occupancy of the pass
}

// collect runs greedy garbage collection on a plane: it picks the closed
// block with the fewest valid pages, relocates its valid pages into the
// plane's write stream, erases it, and returns the plan. Returns nil when
// the plane has no closed blocks to collect.
func (f *FTL) collect(planeID int) *GCPlan {
	p := &f.planes[planeID]
	if len(p.full) == 0 {
		return nil
	}
	// Greedy victim selection: fewest valid pages.
	bestIdx := 0
	bestValid := f.blockAt(p, p.full[0]).validCount
	for i := 1; i < len(p.full); i++ {
		if v := f.blockAt(p, p.full[i]).validCount; v < bestValid {
			bestIdx, bestValid = i, v
		}
	}
	victimID := p.full[bestIdx]
	p.full = append(p.full[:bestIdx], p.full[bestIdx+1:]...)
	victim := f.blockAt(p, victimID)

	moved := 0
	aborted := false
	for page := 0; page < f.cfg.PagesPerBlock; page++ {
		if victim.ownerAt(page) == 0 {
			continue
		}
		if err := f.relocate(planeID, victim, page); err != nil {
			// The plane ran out of space mid-move. The victim still
			// holds valid data, so it must NOT be erased; put it
			// back in the candidate list and report only the moves
			// that happened.
			aborted = true
			break
		}
		moved++
	}

	victimAddr := f.cfg.PlaneAddr(planeID)
	victimAddr.Block = victimID
	if aborted {
		p.full = append(p.full, victimID)
		if moved == 0 {
			return nil
		}
		f.gcMoved += uint64(moved)
		dieTime := sim.Time(moved) * (f.cfg.ReadLatency + f.cfg.WriteLatency)
		f.probe.GC(planeID, moved, 0, 0, dieTime)
		f.plan = GCPlan{
			Plane:      planeID,
			VictimAddr: victimAddr,
			Moved:      moved,
			DieTime:    dieTime,
		}
		return &f.plan
	}
	f.eraseBlock(p, victimID)

	f.gcRuns++
	f.gcMoved += uint64(moved)
	f.gcErases++

	wlMoved, wlTime := f.levelWear(planeID)

	dieTime := sim.Time(moved)*(f.cfg.ReadLatency+f.cfg.WriteLatency) + f.cfg.EraseLatency + wlTime
	f.probe.GC(planeID, moved, wlMoved, 1, dieTime)
	f.plan = GCPlan{
		Plane:      planeID,
		VictimAddr: victimAddr,
		Moved:      moved,
		WearMoves:  wlMoved,
		DieTime:    dieTime,
	}
	return &f.plan
}

// relocate moves one valid page of victim into the write stream of its own
// plane and remaps it: the step GC, wear leveling and block retirement
// share. On error (the plane is out of free blocks) nothing has changed.
func (f *FTL) relocate(planeID int, victim *block, page int) error {
	k := victim.ownerAt(page).key()
	blockID, newPage, err := f.appendPage(planeID, k)
	if err != nil {
		return err
	}
	f.table.set(k, f.cfg.PlanePPN(planeID, blockID, newPage))
	f.clearPage(victim, page)
	return nil
}

// eraseBlock resets a block and returns it to the plane's recycled pool.
func (f *FTL) eraseBlock(p *plane, id int) {
	b := f.blockAt(p, id)
	f.mark(b)
	b.writePtr = 0
	b.validCount = 0
	b.implicit = false
	clear(b.owners)
	b.erases++
	p.recycled = append(p.recycled, id)
}

// WearStats summarizes erase-count distribution across materialized blocks,
// the quantity wear leveling balances.
type WearStats struct {
	Blocks      int // blocks ever written
	TotalErases uint64
	MinErases   int
	MaxErases   int
	MeanErases  float64
}

// Wear scans materialized blocks and reports erase statistics.
func (f *FTL) Wear() WearStats {
	var s WearStats
	first := true
	for i := range f.planes {
		p := &f.planes[i]
		if p.blocks == nil {
			continue
		}
		for _, b := range p.blocks {
			if b == nil {
				continue
			}
			s.Blocks++
			e := int(b.erases)
			s.TotalErases += uint64(e)
			if first || e < s.MinErases {
				s.MinErases = e
			}
			if first || e > s.MaxErases {
				s.MaxErases = e
			}
			first = false
		}
	}
	if s.Blocks > 0 {
		s.MeanErases = float64(s.TotalErases) / float64(s.Blocks)
	}
	return s
}

// FreeBlocks returns the number of free (never-used plus recycled) blocks in
// a plane, for tests.
func (f *FTL) FreeBlocks(planeID int) int {
	return f.planes[planeID].freeBlocks(f.cfg.BlocksPerPlane)
}
