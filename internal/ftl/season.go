package ftl

import (
	"fmt"
	"math/rand"
	"sync"
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
	pages := f.cfg.PagesPerBlock
	if layout := seasonLayoutFor(len(f.planes), fill, pages, validFrac, seed); layout != nil {
		return f.applySeasonLayout(layout, fill)
	}
	return f.seasonDirect(fill, validFrac, seed)
}

// seasonDirect fills fill blocks of every plane, drawing each page's
// validity from the rng: the loop a memoized layout replays.
func (f *FTL) seasonDirect(fill int, validFrac float64, seed int64) error {
	pages := f.cfg.PagesPerBlock
	rng := rand.New(rand.NewSource(seed))
	var lpn int64
	for planeID := range f.planes {
		p := &f.planes[planeID]
		for i := 0; i < fill; i++ {
			id, ok := f.popFree(p, planeID)
			if !ok {
				return fmt.Errorf("ftl: plane %d ran out of blocks while seasoning", planeID)
			}
			b := f.blockAt(p, id)
			b.writePtr = int32(pages)
			for page := 0; page < pages; page++ {
				if rng.Float64() < validFrac {
					b.owners[page] = packOwner(Key{Tenant: coldTenant, LPN: lpn})
					b.validCount++
					lpn++
				}
			}
			p.full = append(p.full, id)
		}
	}
	return nil
}

// seasonLayout is the memoized result of one seasoning parameterization: the
// page owners (0 = invalid) and per-block valid counts for every filled
// block, flattened plane-major in the exact order the rng loop visits them.
// Layouts are immutable once built.
type seasonLayout struct {
	owners []owner
	counts []int32 // one per filled block
}

// seasonKey identifies a seasoning layout: the geometry the loop iterates
// over plus the distribution parameters.
type seasonKey struct {
	planes, fill, pages int
	validFrac           float64
	seed                int64
}

// seasonLayoutCacheMax bounds how many pages of seasoning state a cached
// layout may cover (~2M pages = 16MB of owners). Experiment geometries are
// far below it; full Table I seasoning skips the cache and pays the direct
// loop instead of pinning hundreds of MB.
const seasonLayoutCacheMax = 1 << 21

var seasonLayouts struct {
	sync.Mutex
	m map[seasonKey]*seasonLayout
}

// seasonLayoutFor returns the cached layout for the parameters, building it
// on first use, or nil when the layout is too large to cache. Building
// replays exactly the rng draw sequence of the direct loop, so the applied
// state is byte-for-byte identical.
func seasonLayoutFor(planes, fill, pages int, validFrac float64, seed int64) *seasonLayout {
	total := planes * fill * pages
	if total <= 0 || total > seasonLayoutCacheMax {
		return nil
	}
	k := seasonKey{planes: planes, fill: fill, pages: pages, validFrac: validFrac, seed: seed}
	seasonLayouts.Lock()
	defer seasonLayouts.Unlock()
	if l, ok := seasonLayouts.m[k]; ok {
		return l
	}
	l := &seasonLayout{
		owners: make([]owner, total),
		counts: make([]int32, planes*fill),
	}
	rng := rand.New(rand.NewSource(seed))
	var lpn int64
	for b := 0; b < planes*fill; b++ {
		base := b * pages
		var count int32
		for page := 0; page < pages; page++ {
			if rng.Float64() < validFrac {
				l.owners[base+page] = packOwner(Key{Tenant: coldTenant, LPN: lpn})
				count++
				lpn++
			}
		}
		l.counts[b] = count
	}
	if seasonLayouts.m == nil {
		seasonLayouts.m = make(map[seasonKey]*seasonLayout)
	}
	seasonLayouts.m[k] = l
	return l
}

// applySeasonLayout copies a memoized layout into the planes, replacing the
// per-page rng loop with block-sized copies.
func (f *FTL) applySeasonLayout(l *seasonLayout, fill int) error {
	pages := f.cfg.PagesPerBlock
	idx := 0
	for planeID := range f.planes {
		p := &f.planes[planeID]
		for i := 0; i < fill; i++ {
			id, ok := f.popFree(p, planeID)
			if !ok {
				return fmt.Errorf("ftl: plane %d ran out of blocks while seasoning", planeID)
			}
			b := f.blockAt(p, id)
			b.writePtr = int32(pages)
			base := idx * pages
			copy(b.owners, l.owners[base:base+pages])
			b.validCount = l.counts[idx]
			idx++
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
