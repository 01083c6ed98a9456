package ftl

import "errors"

// A run loop that replays many sessions on one device (the 42-strategy label
// loop) starts every session from the same seasoned state. Rebuilding that
// state means clearing and refilling every block; a checkpoint instead keeps
// the state a run starts from and, while the run goes, the pre-image of each
// block the run mutates, the first time it mutates it. Rewind writes back
// only those blocks, so what a checkpoint holds follows the blocks a run
// touched, not the size of the device. A device that never takes a
// checkpoint (every serving node's) keeps no pre-images at all.
//
// Every site that changes a block's state — appendPage, clearPage (for
// invalidate and relocate) and eraseBlock — calls mark first. Season writes
// blocks directly and is not a mark site: it runs before the checkpoint.
// An implicit block's pre-image is its flag, not its owners: Rewind sets the
// flag back and the seasoning rule supplies the owners again.

// ErrCheckpointTraffic reports a checkpoint asked of a device that has
// served traffic. A checkpoint holds no mappings or counters, so it can only
// be taken before the first request.
var ErrCheckpointTraffic = errors.New("ftl: cannot checkpoint a device that has served traffic")

// checkpoint is the state Rewind returns to.
type checkpoint struct {
	on     bool
	planes []planeMark
	undo   []blockImage // one per block dirtied since the checkpoint
	owners []owner      // the saved owners of every image, back to back
}

// planeMark is a plane's bookkeeping at the checkpoint.
type planeMark struct {
	nextFresh, active int
	full, recycled    []int
}

// blockImage is a block's state before the run first mutated it. An
// explicit block's owners of pages below writePtr (the rest are 0) are
// saved at owners[at:at+writePtr]; an implicit block saves none.
type blockImage struct {
	b                            *block
	at                           int
	writePtr, validCount, erases int32
	implicit                     bool
}

// drop forgets the checkpoint and its pre-images, keeping their storage for
// the next one.
func (c *checkpoint) drop() {
	for _, im := range c.undo {
		im.b.dirty = false
	}
	c.on = false
	c.undo = c.undo[:0]
	c.owners = c.owners[:0]
}

// Checkpoint records the FTL's current state — a device that has served no
// traffic, normally one just reset and seasoned — as the state Rewind
// returns to. Tenant bindings, mappings and counters are not part of it:
// Rewind leaves them as Reset does.
func (f *FTL) Checkpoint() error {
	if f.Counters() != (Counters{}) {
		return ErrCheckpointTraffic
	}
	c := &f.ckpt
	c.drop()
	if c.planes == nil {
		c.planes = make([]planeMark, len(f.planes))
	}
	for i := range f.planes {
		p, m := &f.planes[i], &c.planes[i]
		m.nextFresh, m.active = p.nextFresh, p.active
		m.full = append(m.full[:0], p.full...)
		m.recycled = append(m.recycled[:0], p.recycled...)
	}
	c.on = true
	return nil
}

// Rewind returns the FTL to its checkpoint: each block the run dirtied gets
// its pre-image back, every plane its lists and cursors, and mappings,
// bindings and counters are cleared as Reset clears them. The checkpoint
// stays, so the next run can rewind again. Rewind panics without a
// checkpoint.
func (f *FTL) Rewind() {
	c := &f.ckpt
	if !c.on {
		panic("ftl: Rewind without a Checkpoint")
	}
	for _, im := range c.undo {
		b := im.b
		b.writePtr, b.validCount, b.erases, b.implicit = im.writePtr, im.validCount, im.erases, im.implicit
		if !im.implicit { // an implicit block's array is stale until materialize
			clear(b.owners[copy(b.owners, c.owners[im.at:im.at+int(im.writePtr)]):])
		}
		b.dirty = false
	}
	c.undo = c.undo[:0]
	c.owners = c.owners[:0]
	for i := range f.planes {
		p, m := &f.planes[i], &c.planes[i]
		p.nextFresh, p.active = m.nextFresh, m.active
		p.full = append(p.full[:0], m.full...)
		p.recycled = append(p.recycled[:0], m.recycled...)
	}
	f.resetRun()
}

// mark saves b's pre-image the first time a run mutates it after a
// checkpoint; without a checkpoint it does nothing.
func (f *FTL) mark(b *block) {
	c := &f.ckpt
	if !c.on || b.dirty {
		return
	}
	b.dirty = true
	c.undo = append(c.undo, blockImage{b: b, writePtr: b.writePtr, validCount: b.validCount,
		erases: b.erases, at: len(c.owners), implicit: b.implicit})
	if !b.implicit {
		c.owners = append(c.owners, b.owners[:b.writePtr]...)
	}
}
