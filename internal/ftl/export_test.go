package ftl

import (
	"fmt"
	"slices"
)

// StateDiff describes the first difference between two FTLs' physical
// state — each plane's cursors and lists (full in order), each block's
// owners, valid count, write pointer and erases — or returns "" when there
// is none. A block never materialized compares as an erased, never-written
// one: a reused device keeps storage a fresh one has not allocated yet.
func StateDiff(a, b *FTL) string {
	if len(a.planes) != len(b.planes) {
		return fmt.Sprintf("%d planes vs %d", len(a.planes), len(b.planes))
	}
	var zero block
	for i := range a.planes {
		pa, pb := &a.planes[i], &b.planes[i]
		if pa.nextFresh != pb.nextFresh || pa.active != pb.active || !slices.Equal(pa.recycled, pb.recycled) {
			return fmt.Sprintf("plane %d: nextFresh/active/recycled %d %d %v vs %d %d %v",
				i, pa.nextFresh, pa.active, pa.recycled, pb.nextFresh, pb.active, pb.recycled)
		}
		if !slices.Equal(pa.full, pb.full) {
			return fmt.Sprintf("plane %d: full %v vs %v", i, pa.full, pb.full)
		}
		for id := 0; id < a.cfg.BlocksPerPlane; id++ {
			ba, bb := &zero, &zero
			if pa.blocks != nil && pa.blocks[id] != nil {
				ba = pa.blocks[id]
			}
			if pb.blocks != nil && pb.blocks[id] != nil {
				bb = pb.blocks[id]
			}
			if ba.writePtr != bb.writePtr || ba.validCount != bb.validCount || ba.erases != bb.erases {
				return fmt.Sprintf("plane %d block %d: ptr/valid/erases %d/%d/%d vs %d/%d/%d", i, id,
					ba.writePtr, ba.validCount, ba.erases, bb.writePtr, bb.validCount, bb.erases)
			}
			for page := 0; page < a.cfg.PagesPerBlock; page++ {
				if oa, ob := ba.ownerAt(page), bb.ownerAt(page); oa != ob {
					return fmt.Sprintf("plane %d block %d page %d: owner %#x vs %#x", i, id, page,
						uint64(oa), uint64(ob))
				}
			}
		}
	}
	return ""
}

// ColdKey is the key of the cold seasoning tenant's page lpn.
func ColdKey(lpn int64) Key { return Key{Tenant: coldTenant, LPN: lpn} }

// SeasonExplicit seasons f as Season does and then writes every seasoned
// block's owners out page by page, numbering the cold LPNs itself: the
// explicit fill Season's implicit blocks stand for.
func SeasonExplicit(f *FTL, validFrac float64, freeBlocks int) error {
	if err := f.Season(validFrac, freeBlocks); err != nil {
		return err
	}
	var lpn int64
	for i := range f.planes {
		p := &f.planes[i]
		for _, id := range p.full {
			b := f.blockAt(p, id)
			b.implicit = false
			b.owners = make([]owner, f.cfg.PagesPerBlock)
			for page := range b.owners[:b.validCount] {
				b.owners[page] = packOwner(Key{Tenant: coldTenant, LPN: lpn})
				lpn++
			}
		}
	}
	return nil
}

// OwnerWords counts the reverse-map words f has allocated.
func OwnerWords(f *FTL) int {
	n := 0
	for i := range f.planes {
		for _, b := range f.planes[i].blocks {
			if b != nil {
				n += len(b.owners)
			}
		}
	}
	return n
}
