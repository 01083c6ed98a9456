package ftl

import (
	"fmt"
	"math/rand"
)

// coldTenant owns seasoning data: resident pages that belong to no real
// tenant. Garbage collection relocates them (paying the realistic move
// cost), but no request ever reads or overwrites them.
const coldTenant = -1

// Season ages the device in place, as SSDSim-style warm-up phases do: every
// plane is filled until only a small pool of free blocks remains, and each
// page of those blocks is valid with probability validFrac (owned by cold
// data). A freshly-created SSD never garbage-collects, so an unseasoned
// simulation hides the GC stalls that dominate multi-tenant interference on
// a device in steady state; seasoning restores them.
//
// freeBlocks is the number of blocks left free per plane; values at or below
// the GC low-water mark are raised just above it so the first tenant write
// does not immediately GC. Season must be called before any traffic.
func (f *FTL) Season(validFrac float64, freeBlocks int, seed int64) error {
	if validFrac < 0 || validFrac >= 1 {
		return fmt.Errorf("ftl: seasoning valid fraction %v outside [0,1)", validFrac)
	}
	if f.writes > 0 || f.preloads > 0 {
		return fmt.Errorf("ftl: cannot season a device that has already served traffic")
	}
	if freeBlocks <= f.gcLowWater {
		freeBlocks = f.gcLowWater + 1
	}
	if freeBlocks >= f.cfg.BlocksPerPlane {
		return nil // nothing to fill
	}
	fill := f.cfg.BlocksPerPlane - freeBlocks
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(seed))
	} else {
		f.rng.Seed(seed)
	}
	var lpn int64
	for planeID := range f.planes {
		p := &f.planes[planeID]
		if cap(p.full) < fill {
			p.full = make([]int, 0, f.cfg.BlocksPerPlane)
		}
		for i := 0; i < fill; i++ {
			id, ok := f.popFree(p, planeID)
			if !ok {
				return fmt.Errorf("ftl: plane %d ran out of blocks while seasoning", planeID)
			}
			b := f.blockAt(p, id)
			b.writePtr = int32(f.cfg.PagesPerBlock)
			start := lpn
			for page := range b.owners {
				// Whether a page is live is a coin flip, so it is
				// computed, not branched on: a branch would mispredict
				// on every other page.
				var live int64
				if f.rng.Float64() < validFrac {
					live = 1
				}
				b.owners[page] = owner(live) * packOwner(Key{Tenant: coldTenant, LPN: lpn})
				lpn += live
			}
			b.validCount = int32(lpn - start)
			p.full = append(p.full, id)
		}
	}
	return nil
}

// LiveColdPages counts resident seasoning pages, for tests.
func (f *FTL) LiveColdPages() int {
	count := 0
	for i := range f.planes {
		p := &f.planes[i]
		if p.blocks == nil {
			continue
		}
		for _, b := range p.blocks {
			if b == nil {
				continue
			}
			for _, o := range b.owners {
				if o != 0 && o.key().Tenant == coldTenant {
					count++
				}
			}
		}
	}
	return count
}
