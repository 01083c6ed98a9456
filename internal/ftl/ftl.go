// Package ftl implements a page-level flash translation layer: logical-to-
// physical mapping, static and dynamic page allocation (the two modes the
// paper's hybrid page allocator switches between), greedy garbage
// collection, and wear accounting.
//
// The FTL is tenant-aware: each tenant has its own logical address space and
// an assigned set of channels (set by the channel allocator), plus a page
// allocation mode. Static allocation stripes consecutive logical pages
// across the tenant's channels (maximizing read parallelism); dynamic
// allocation places each write on the least-loaded channel and die of the
// tenant's set (minimizing write queueing).
package ftl

import (
	"errors"
	"fmt"

	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/sim"
)

// ErrDeviceFull reports that a plane ran out of free blocks with nothing
// left to reclaim: the live data routed to it exceeds its capacity. Channel
// partitions that cannot hold their tenants' working sets fail with this
// error; callers score such strategies as infeasible.
var ErrDeviceFull = errors.New("ftl: out of free blocks (live data exceeds plane capacity)")

// PageMode selects how physical pages are chosen for writes.
type PageMode uint8

// Page allocation modes (paper Section IV.E).
const (
	// StaticAlloc stripes logical pages over the tenant's channels, then
	// dies, then planes, so sequential reads hit distinct resources.
	StaticAlloc PageMode = iota
	// DynamicAlloc sends each write to the least-loaded channel and die
	// in the tenant's set at the moment of the write.
	DynamicAlloc
)

// String returns "static" or "dynamic".
func (m PageMode) String() string {
	if m == StaticAlloc {
		return "static"
	}
	return "dynamic"
}

// Load supplies live device load, used by dynamic allocation. The SSD device
// implements it; tests use fakes.
type Load interface {
	// ChannelLoad estimates pending work on a channel bus.
	ChannelLoad(ch int) sim.Time
	// DieLoad estimates pending work on a flat die index.
	DieLoad(die int) sim.Time
}

// zeroLoad is used when no telemetry is wired. Every load ties at zero and
// the least-loaded scans compare with a strict <, so dynamic allocation then
// picks the first channel of the tenant's set and that channel's first die
// every time; only the planes of that die rotate.
type zeroLoad struct{}

func (zeroLoad) ChannelLoad(int) sim.Time { return 0 }
func (zeroLoad) DieLoad(int) sim.Time     { return 0 }

// owner is the reverse-map entry of one physical page: the logical page that
// occupies it, packed as (tenant+2)<<32 | lpn, or 0 when the page holds no
// valid data (never programmed, overwritten or relocated). tenant+2 is at
// least 1 even for the cold tenant, so a valid page never packs to 0; a
// tenant's LPN is below MaxLPN and a cold LPN below nand.MaxTotalPages, so
// both fit the low 32 bits.
type owner uint64

// packOwner returns k's reverse-map entry.
func packOwner(k Key) owner {
	return owner(uint64(k.Tenant+2)<<32 | uint64(uint32(k.LPN)))
}

// key unpacks a valid page's owner.
func (o owner) key() Key {
	return Key{Tenant: int(o>>32) - 2, LPN: int64(uint32(o))}
}

// block is the erase-unit state. Its page counters fit int32 because
// nand.Config.Validate caps a device at 2^32-1 pages in at least two blocks.
//
// A seasoned block is implicit until something changes its pages: Season
// writes only its counters and its first cold LPN, and ownerAt computes each
// page's owner from the seasoning rule — pages 0..validCount-1 hold cold
// LPNs firstCold, firstCold+1, ... and the rest hold nothing. materialize
// writes that rule out into owners before the first change, so a device
// stores reverse-map words only for the blocks its traffic touched.
type block struct {
	writePtr   int32 // next page to program; == PagesPerBlock when full
	validCount int32
	erases     int32
	firstCold  uint32  // implicit blocks: the cold LPN in page 0
	implicit   bool    // owners follow the seasoning rule, not the array
	dirty      bool    // mutated since the checkpoint; see mark
	owners     []owner // per page, 0 = invalid; nil until first written
}

// ownerAt returns the owner of one page of b, 0 when it holds no valid data.
// Every read of a block's reverse map goes through it.
func (b *block) ownerAt(page int) owner {
	if b.implicit {
		if page < int(b.validCount) {
			return packOwner(Key{Tenant: coldTenant, LPN: int64(b.firstCold) + int64(page)})
		}
		return 0
	}
	if b.owners == nil {
		return 0
	}
	return b.owners[page]
}

// materialize gives b an owner array holding its current owners: appendPage
// and clearPage call it, after mark, before they change one. The array, once
// allocated, stays with the block through erases, Reset and Rewind.
func (f *FTL) materialize(b *block) {
	if b.owners == nil {
		b.owners = make([]owner, f.cfg.PagesPerBlock)
	}
	if b.implicit {
		for page := range b.owners {
			b.owners[page] = b.ownerAt(page)
		}
		b.implicit = false
	}
}

// plane holds per-plane block bookkeeping. Blocks are materialized lazily:
// with Table I geometry a device has 262144 blocks, almost all of which a
// simulation never touches. Block structs are carved out of per-plane slabs
// of blockChunk blocks, so touching a block costs one allocation per chunk
// instead of one per block; a block's owner array is its own allocation,
// made when the block is first written (see block).
type plane struct {
	blocks    []*block // lazily filled; nil = never used
	nextFresh int      // first never-used block index
	recycled  []int    // erased blocks available for reuse
	active    int      // currently open block, -1 if none
	full      []int    // closed blocks, candidates for GC

	slabBlocks []block // slab remainder for chunked block materialization
}

// blockChunk is how many blocks one slab materializes at a time. 64 covers
// a whole EvalConfig plane in one chunk; for the full Table I geometry the
// worst-case over-allocation per plane (63 unused blocks) is ~3KB.
const blockChunk = 64

func (p *plane) freeBlocks(total int) int {
	return (total - p.nextFresh) + len(p.recycled)
}

// Key identifies a logical page: a tenant and a logical page number.
type Key struct {
	Tenant int
	LPN    int64
}

// FTL is the translation layer state for one device.
type FTL struct {
	cfg    nand.Config
	load   Load
	probe  sim.Probe
	health *nand.Health // nil = immortal device, zero-cost fast path

	planes []plane
	table  pageTable // logical page -> PPN

	channels    [][]int    // indexed by tenant; empty or absent = all channels
	modes       []PageMode // indexed by tenant; absent = static
	allChannels []int      // 0..Channels-1, handed out read-only
	rr          []int      // per-die round-robin plane cursor

	gcLowWater int // free blocks per plane that triggers GC

	// Counters.
	writes        uint64
	preloads      uint64 // implicit mappings created by reads of unwritten data
	invalidations uint64
	gcRuns        uint64
	gcMoved       uint64
	gcErases      uint64
	wlRuns        uint64
	wlMoved       uint64

	// plan is the scratch GC plan collect returns. Callers consume the plan
	// synchronously (the device charges its DieTime before the next mapping
	// call), so one reusable record replaces a heap allocation per GC pass.
	plan GCPlan

	// ckpt is the state Rewind returns to (checkpoint.go).
	ckpt checkpoint
}

// New creates an FTL over the given geometry. load may be nil, in which case
// dynamic allocation behaves as round-robin.
func New(cfg nand.Config, load Load) (*FTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if load == nil {
		load = zeroLoad{}
	}
	low := int(cfg.GCThreshold * float64(cfg.BlocksPerPlane))
	if low < 1 {
		low = 1
	}
	f := &FTL{
		cfg:         cfg,
		load:        load,
		probe:       sim.NopProbe{},
		planes:      make([]plane, cfg.TotalPlanes()),
		allChannels: make([]int, cfg.Channels),
		rr:          make([]int, cfg.TotalDies()),
		gcLowWater:  low,
	}
	for i := range f.planes {
		f.planes[i].active = -1
	}
	for i := range f.allChannels {
		f.allChannels[i] = i
	}
	return f, nil
}

// Reset restores the FTL to its factory-fresh state — no mappings, no
// tenant bindings, every block erased-and-never-used with zero wear — while
// keeping all materialized block storage, mapping-table leaves, and slices
// for reuse; a checkpoint is dropped. A reset FTL behaves identically to one
// just built by New over the same geometry; only the allocation pattern
// differs.
func (f *FTL) Reset() {
	for i := range f.planes {
		p := &f.planes[i]
		for _, b := range p.blocks {
			if b == nil {
				continue
			}
			*b = block{owners: b.owners}
			clear(b.owners)
		}
		p.nextFresh = 0
		p.recycled = p.recycled[:0]
		p.active = -1
		p.full = p.full[:0]
	}
	f.ckpt.drop()
	f.resetRun()
}

// resetRun clears what a run builds on top of the block state: mappings,
// tenant bindings, plane cursors and counters.
func (f *FTL) resetRun() {
	f.table.reset()
	for i := range f.channels {
		f.channels[i] = f.channels[i][:0]
	}
	clear(f.modes)
	clear(f.rr)
	f.writes = 0
	f.preloads = 0
	f.invalidations = 0
	f.gcRuns = 0
	f.gcMoved = 0
	f.gcErases = 0
	f.wlRuns = 0
	f.wlMoved = 0
}

// SetProbe attaches a probe notified of garbage-collection passes, die
// failures and block retirements. A nil probe restores the no-op default.
func (f *FTL) SetProbe(p sim.Probe) {
	if p == nil {
		p = sim.NopProbe{}
	}
	f.probe = p
}

// SetHealth attaches the device health state the FTL routes around: page
// placement skips dead dies and popFree skips retired blocks. nil (the
// default) keeps the immortal fast path — every health check is a single
// nil comparison. The caller owns resetting h; FTL.Reset does not touch it.
func (f *FTL) SetHealth(h *nand.Health) { f.health = h }

// SetTenantChannels assigns the channel set a tenant's future writes may
// use; an empty set restores all channels. The set is copied into storage
// the tenant keeps across calls, so re-binding allocates nothing once each
// tenant has held its largest set. Existing mappings are untouched: data
// already written stays where it is and reads follow the mapping, exactly
// as a real re-allocation would behave without migration.
func (f *FTL) SetTenantChannels(tenant int, channels []int) error {
	if tenant < 0 || tenant >= MaxTenants {
		return fmt.Errorf("ftl: tenant %d: %w", tenant, ErrAddressRange)
	}
	for _, c := range channels {
		if c < 0 || c >= f.cfg.Channels {
			return fmt.Errorf("ftl: channel %d outside device (%d channels)", c, f.cfg.Channels)
		}
	}
	if tenant >= len(f.channels) {
		if len(channels) == 0 {
			return nil // back to all channels
		}
		f.channels = append(f.channels, make([][]int, tenant+1-len(f.channels))...)
	}
	// Copy into the tenant's own storage; an empty set means all channels.
	f.channels[tenant] = append(f.channels[tenant][:0], channels...)
	return nil
}

// SetTenantMode sets the page allocation mode for a tenant's writes. A
// tenant outside [0, MaxTenants) cannot write, so setting its mode is a
// no-op.
func (f *FTL) SetTenantMode(tenant int, mode PageMode) {
	if tenant < 0 || tenant >= MaxTenants {
		return
	}
	if tenant >= len(f.modes) {
		f.modes = append(f.modes, make([]PageMode, tenant+1-len(f.modes))...)
	}
	f.modes[tenant] = mode
}

// TenantChannels returns the channel set for a tenant (all channels if
// unset). The result is the FTL's own slice, shared by every caller and by
// the page path: it is read-only.
func (f *FTL) TenantChannels(tenant int) []int {
	if uint(tenant) < uint(len(f.channels)) && len(f.channels[tenant]) > 0 {
		return f.channels[tenant]
	}
	return f.allChannels
}

// TenantMode returns the page allocation mode for a tenant (static if
// unset).
func (f *FTL) TenantMode(tenant int) PageMode {
	if uint(tenant) < uint(len(f.modes)) {
		return f.modes[tenant]
	}
	return StaticAlloc
}

// Lookup returns the physical address of a logical page, if mapped.
func (f *FTL) Lookup(k Key) (nand.Addr, bool) {
	e := f.table.get(k)
	if e == 0 {
		return nand.Addr{}, false
	}
	return f.cfg.AddrOf(e - 1), true
}

// MapRead returns the physical address to read for a logical page. Reads of
// never-written pages are backed by an implicit static preload: the page is
// placed as static allocation would have placed it, modelling a device whose
// resident data was written with the tenant's striping. No program time is
// charged for preloads.
func (f *FTL) MapRead(k Key) (nand.Addr, error) {
	if a, ok := f.Lookup(k); ok {
		return a, nil
	}
	if err := checkKey(k); err != nil {
		return nand.Addr{}, err
	}
	a, _, err := f.place(k, StaticAlloc)
	if err != nil {
		return nand.Addr{}, err
	}
	f.preloads++
	return a, nil
}

// MapWrite allocates a physical page for a logical write, invalidating any
// previous mapping, and returns the address plus an optional GC plan that
// the caller must account for (the FTL metadata effects of the plan are
// already applied; the caller charges its time on the die).
func (f *FTL) MapWrite(k Key) (nand.Addr, *GCPlan, error) {
	if err := checkKey(k); err != nil {
		return nand.Addr{}, nil, err
	}
	mode := f.TenantMode(k.Tenant)
	if e := f.table.get(k); e != 0 {
		f.invalidate(e - 1)
	}
	a, gc, err := f.place(k, mode)
	if err != nil {
		return nand.Addr{}, nil, err
	}
	f.writes++
	return a, gc, nil
}

// place picks a plane according to mode, appends the page to the plane's
// active block, updates the mapping, and runs GC if the plane is low on free
// blocks.
func (f *FTL) place(k Key, mode PageMode) (nand.Addr, *GCPlan, error) {
	set := f.TenantChannels(k.Tenant)
	var ch, dieInCh, pl int
	switch mode {
	case StaticAlloc:
		// Channel-first striping within the tenant's set: consecutive
		// LPNs land on consecutive channels, then dies, then planes.
		l := k.LPN
		ch = set[int(l%int64(len(set)))]
		l /= int64(len(set))
		dieInCh = int(l % int64(f.cfg.DiesPerChannel()))
		l /= int64(f.cfg.DiesPerChannel())
		pl = int(l % int64(f.cfg.PlanesPerDie))
		if f.health != nil {
			c2, d2, live := f.redirect(set, ch, dieInCh)
			if !live {
				return nand.Addr{}, nil, fmt.Errorf("ftl: no live dies: %w", ErrDeviceFull)
			}
			ch, dieInCh = c2, d2
		}
	case DynamicAlloc:
		ch = -1
		var best sim.Time
		for _, c := range set {
			if f.health != nil && f.health.LiveInChannel(c) == 0 {
				continue
			}
			if l := f.load.ChannelLoad(c); ch == -1 || l < best {
				ch, best = c, l
			}
		}
		if ch == -1 {
			// The tenant's whole channel set is dead; spill to any
			// live channel, like the static redirect's last resort.
			for c := 0; c < f.cfg.Channels; c++ {
				if f.health.LiveInChannel(c) == 0 {
					continue
				}
				if l := f.load.ChannelLoad(c); ch == -1 || l < best {
					ch, best = c, l
				}
			}
			if ch == -1 {
				return nand.Addr{}, nil, fmt.Errorf("ftl: no live dies: %w", ErrDeviceFull)
			}
		}
		dieInCh = -1
		firstDie := ch * f.cfg.DiesPerChannel()
		var bestDie sim.Time
		for d := 0; d < f.cfg.DiesPerChannel(); d++ {
			if f.health != nil && f.health.DieDead(firstDie+d) {
				continue
			}
			if l := f.load.DieLoad(firstDie + d); dieInCh == -1 || l < bestDie {
				dieInCh, bestDie = d, l
			}
		}
		die := firstDie + dieInCh
		pl = f.rr[die]
		f.rr[die] = (pl + 1) % f.cfg.PlanesPerDie
	default:
		return nand.Addr{}, nil, fmt.Errorf("ftl: unknown page mode %d", mode)
	}

	chip := dieInCh / f.cfg.DiesPerChip
	die := dieInCh % f.cfg.DiesPerChip
	base := nand.Addr{Channel: ch, Chip: chip, Die: die, Plane: pl}
	planeID := f.cfg.PlaneID(base)

	blockID, page, err := f.appendPage(planeID, k)
	if err != nil {
		return nand.Addr{}, nil, err
	}
	base.Block = blockID
	base.Page = page
	f.table.set(k, f.cfg.PlanePPN(planeID, blockID, page))

	var gc *GCPlan
	if f.planes[planeID].freeBlocks(f.cfg.BlocksPerPlane) <= f.gcLowWater {
		gc = f.collect(planeID)
	}
	return base, gc, nil
}

// appendPage writes k into the plane's active block, opening a new block if
// needed, and returns the (block, page) location.
func (f *FTL) appendPage(planeID int, k Key) (blockID, page int, err error) {
	p := &f.planes[planeID]
	if p.active == -1 || int(f.blockAt(p, p.active).writePtr) == f.cfg.PagesPerBlock {
		// Pop the replacement before retiring the active block: if the
		// plane is out of free blocks the active block must stay active
		// (and out of the GC candidate list) so state remains
		// consistent across the error.
		id, ok := f.popFree(p, planeID)
		if !ok {
			return 0, 0, fmt.Errorf("plane %d: %w", planeID, ErrDeviceFull)
		}
		if p.active != -1 {
			p.full = append(p.full, p.active)
		}
		p.active = id
	}
	b := f.blockAt(p, p.active)
	f.mark(b)
	f.materialize(b)
	page = int(b.writePtr)
	b.writePtr++
	b.owners[page] = packOwner(k)
	b.validCount++
	return p.active, page, nil
}

// blockAt materializes the block lazily, carving it from the plane's slab.
func (f *FTL) blockAt(p *plane, id int) *block {
	if p.blocks == nil {
		p.blocks = make([]*block, f.cfg.BlocksPerPlane)
	}
	if b := p.blocks[id]; b != nil {
		return b
	}
	if len(p.slabBlocks) == 0 {
		p.slabBlocks = make([]block, min(blockChunk, f.cfg.BlocksPerPlane))
	}
	b := &p.slabBlocks[0]
	p.slabBlocks = p.slabBlocks[1:]
	p.blocks[id] = b
	return b
}

// popFree takes a free block. Never-used blocks go first; among recycled
// blocks the least-erased is chosen — dynamic wear leveling, which spreads
// erases evenly across the blocks in circulation. Retired fresh blocks are
// skipped (retired recycled blocks were removed from the list when they
// retired).
func (f *FTL) popFree(p *plane, planeID int) (int, bool) {
	if f.health != nil {
		for p.nextFresh < f.cfg.BlocksPerPlane && f.health.BlockRetired(planeID, p.nextFresh) {
			p.nextFresh++
		}
	}
	if p.nextFresh < f.cfg.BlocksPerPlane {
		id := p.nextFresh
		p.nextFresh++
		return id, true
	}
	n := len(p.recycled)
	if n == 0 {
		return 0, false
	}
	best := 0
	bestErases := f.blockAt(p, p.recycled[0]).erases
	for i := 1; i < n; i++ {
		if e := f.blockAt(p, p.recycled[i]).erases; e < bestErases {
			best, bestErases = i, e
		}
	}
	id := p.recycled[best]
	p.recycled[best] = p.recycled[n-1]
	p.recycled = p.recycled[:n-1]
	return id, true
}

// invalidate clears the owner of a physical page.
func (f *FTL) invalidate(ppn int64) {
	planeID, blockID, page := f.cfg.SplitPPN(ppn)
	b := f.blockAt(&f.planes[planeID], blockID)
	if b.ownerAt(page) != 0 {
		f.clearPage(b, page)
		f.invalidations++
	}
}

// clearPage drops one valid page of b: the step an overwrite's invalidate
// and a move's relocate share.
func (f *FTL) clearPage(b *block, page int) {
	f.mark(b)
	f.materialize(b)
	b.owners[page] = 0
	b.validCount--
}

// Counters is a snapshot of FTL activity, for tests and reports.
type Counters struct {
	Writes        uint64
	Preloads      uint64
	Invalidations uint64
	GCRuns        uint64
	GCMovedPages  uint64
	GCErases      uint64
	WLRuns        uint64
	WLMovedPages  uint64
	Mapped        int
}

// Counters returns current FTL activity counters.
func (f *FTL) Counters() Counters {
	return Counters{
		Writes:        f.writes,
		Preloads:      f.preloads,
		Invalidations: f.invalidations,
		GCRuns:        f.gcRuns,
		GCMovedPages:  f.gcMoved,
		GCErases:      f.gcErases,
		WLRuns:        f.wlRuns,
		WLMovedPages:  f.wlMoved,
		Mapped:        f.table.mapped,
	}
}
