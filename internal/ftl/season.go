package ftl

import (
	"fmt"
	"math"
)

// coldTenant owns seasoning data: resident pages that belong to no real
// tenant. Garbage collection relocates them (paying the realistic move
// cost), but no request ever reads or overwrites them.
const coldTenant = -1

// Season ages the device in place, as SSDSim-style warm-up phases do: every
// plane is filled until only a small pool of free blocks remains, and the
// filled blocks hold live cold data in the proportions of a device whose
// pages are each valid with probability validFrac. A freshly-created SSD
// never garbage-collects, so an unseasoned simulation hides the GC stalls
// that dominate multi-tenant interference on a device in steady state;
// seasoning restores them.
//
// The layout draws nothing at random. Block i of the fill blocks (in the
// order popFree hands them out) holds k_i live pages, the (i+0.5)/fill
// quantile of Binomial(PagesPerBlock, validFrac), in its first k_i pages,
// and is written to its end. Every plane gets the same counts, so no
// channel, die or plane is older than another: a tenant bound to one
// channel set costs what it costs on any other set of the same size.
// Cold LPNs run consecutively through the blocks, plane by plane, so Season
// stores only each block's counters and first cold LPN and leaves the block
// implicit (see block): seasoning writes no reverse-map words.
//
// freeBlocks is the number of blocks left free per plane; values at or below
// the GC low-water mark are raised just above it so the first tenant write
// does not immediately GC. Season must be called before any traffic.
func (f *FTL) Season(validFrac float64, freeBlocks int) error {
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
	q := newBinomialQuantiles(f.cfg.PagesPerBlock, validFrac)
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
			// Plane 0 walks the quantiles; every other plane repeats
			// its counts.
			var live int32
			if planeID == 0 {
				live = int32(q.at((float64(i) + 0.5) / float64(fill)))
			} else {
				live = f.blockAt(&f.planes[0], f.planes[0].full[i]).validCount
			}
			b := f.blockAt(p, id)
			b.writePtr = int32(f.cfg.PagesPerBlock)
			b.validCount = live
			b.implicit = true
			b.firstCold = uint32(lpn)
			lpn += int64(live)
			p.full = append(p.full, id)
		}
	}
	return nil
}

// binomialQuantiles walks the CDF of Binomial(n, p) upward: at(u) is the
// smallest k with P[X <= k] >= u, for u non-decreasing across calls.
type binomialQuantiles struct {
	n, k         int
	cdf          float64
	logP, log1mP float64
}

func newBinomialQuantiles(n int, p float64) binomialQuantiles {
	q := binomialQuantiles{n: n, logP: math.Log(p), log1mP: math.Log1p(-p)}
	q.cdf = math.Exp(float64(n) * q.log1mP)
	return q
}

func (q *binomialQuantiles) at(u float64) int {
	for q.cdf < u && q.k < q.n {
		q.k++
		q.cdf += q.mass(q.k)
	}
	return q.k
}

// mass is P[X = k], computed in log space so no term underflows on the way.
func (q *binomialQuantiles) mass(k int) float64 {
	lg := func(x int) float64 { v, _ := math.Lgamma(float64(x) + 1); return v }
	return math.Exp(lg(q.n) - lg(k) - lg(q.n-k) + float64(k)*q.logP + float64(q.n-k)*q.log1mP)
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
			for page := 0; page < f.cfg.PagesPerBlock; page++ {
				if o := b.ownerAt(page); o != 0 && o.key().Tenant == coldTenant {
					count++
				}
			}
		}
	}
	return count
}
