package ftl

import (
	"errors"
	"fmt"
)

// The logical-to-physical table is the FTL's inner loop: every page of every
// request reads it, every write and every GC move writes it. Logical spaces
// are mostly dense (a tenant's working set, the seasoning fill), so the
// table is array-shaped: one directory per tenant, indexed by LPN>>leafBits,
// of lazily materialised fixed-size leaves holding ppn+1 (0 = unmapped). A
// lookup is two bounds checks and two loads; nothing is hashed.
//
// Cost is bounded by refusing addresses instead of falling back to a sparse
// structure: memory is one leaf (4 KiB) per leafPages-aligned LPN range
// touched, plus a directory that grows to the highest LPN seen — at most
// MaxLPN/leafPages pointers (2 MiB) however far away a single page lands —
// plus one directory header per tenant id up to the highest seen, at most
// MaxTenants of them. Keys outside [0, MaxTenants) x [0, MaxLPN) are
// refused with ErrAddressRange by MapRead and MapWrite.
const (
	leafBits  = 10
	leafPages = 1 << leafBits

	// MaxLPN bounds a tenant's logical page numbers (exclusive): 2^28 pages
	// is 4 TiB of logical space per tenant at 16 KiB pages, beyond any
	// volume of the traces the simulator replays.
	MaxLPN = 1 << 28
	// MaxTenants bounds tenant ids (exclusive).
	MaxTenants = 1 << 12
)

// ErrAddressRange reports a logical page outside the mapping table's
// address space: a tenant id outside [0, MaxTenants) or an LPN outside
// [0, MaxLPN).
var ErrAddressRange = errors.New("ftl: logical address outside the mapping table's range")

// checkKey refuses keys the table does not address. The cold seasoning
// tenant is internal and never arrives through MapRead or MapWrite.
func checkKey(k Key) error {
	if uint64(k.Tenant) >= MaxTenants || uint64(k.LPN) >= MaxLPN {
		return fmt.Errorf("tenant %d lpn %d: %w", k.Tenant, k.LPN, ErrAddressRange)
	}
	return nil
}

// leaf maps leafPages consecutive LPNs of one tenant to ppn+1, which
// nand.Config.Validate bounds to 32 bits.
type leaf [leafPages]uint32

// pageTable is the mapping table. Slot tenant+1 of dirs is the tenant's
// directory, so the cold seasoning tenant (-1) is slot 0 and gets a
// directory like any other. Entries are never removed: an overwritten or
// relocated page replaces its entry.
type pageTable struct {
	dirs   [][]*leaf
	mapped int
}

// get returns ppn+1 for a mapped page and 0 otherwise, including for keys
// outside the table's range.
func (t *pageTable) get(k Key) int64 {
	slot := uint(k.Tenant + 1)
	if slot >= uint(len(t.dirs)) {
		return 0
	}
	dir := t.dirs[slot]
	i := uint64(k.LPN) >> leafBits
	if i >= uint64(len(dir)) || dir[i] == nil {
		return 0
	}
	return int64(dir[i][k.LPN&(leafPages-1)])
}

// set maps k to ppn. Callers bound the key: checkKey for tenants' pages,
// while seasoning numbers the cold tenant's pages densely from 0.
func (t *pageTable) set(k Key, ppn int64) {
	slot := k.Tenant + 1
	if slot >= len(t.dirs) {
		t.dirs = append(t.dirs, make([][]*leaf, slot+1-len(t.dirs))...)
	}
	i := int(k.LPN >> leafBits)
	if i >= len(t.dirs[slot]) {
		t.dirs[slot] = append(t.dirs[slot], make([]*leaf, i+1-len(t.dirs[slot]))...)
	}
	l := t.dirs[slot][i]
	if l == nil {
		l = new(leaf)
		t.dirs[slot][i] = l
	}
	e := &l[k.LPN&(leafPages-1)]
	if *e == 0 {
		t.mapped++
	}
	*e = uint32(ppn + 1)
}

// reset unmaps everything, keeping directories and leaves for reuse.
func (t *pageTable) reset() {
	for _, dir := range t.dirs {
		for _, l := range dir {
			if l != nil {
				clear(l[:])
			}
		}
	}
	t.mapped = 0
}

// walk calls fn for every mapped page in (tenant, LPN) order — cold tenant
// first — until fn returns false. fn may set entries while the walk runs:
// each entry is read when the walk reaches it.
func (t *pageTable) walk(fn func(k Key, ppn int64) bool) {
	for slot := 0; slot < len(t.dirs); slot++ {
		for i := 0; i < len(t.dirs[slot]); i++ {
			l := t.dirs[slot][i]
			if l == nil {
				continue
			}
			for j := range l {
				if e := l[j]; e != 0 {
					k := Key{Tenant: slot - 1, LPN: int64(i)<<leafBits | int64(j)}
					if !fn(k, int64(e)-1) {
						return
					}
				}
			}
		}
	}
}
