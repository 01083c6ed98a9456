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
				if ownerAt(ba, page) != ownerAt(bb, page) {
					return fmt.Sprintf("plane %d block %d page %d: owner %#x vs %#x", i, id, page,
						uint64(ownerAt(ba, page)), uint64(ownerAt(bb, page)))
				}
			}
		}
	}
	return ""
}

// ownerAt is b's owner of page, 0 for the zero block (which has no owners).
func ownerAt(b *block, page int) owner {
	if b.owners == nil {
		return 0
	}
	return b.owners[page]
}

// ColdKey is the key of the cold seasoning tenant's page lpn.
func ColdKey(lpn int64) Key { return Key{Tenant: coldTenant, LPN: lpn} }
