package wire

// pendingTable maps a connection's in-flight seqs to their calls. It is
// open addressing on seq&mask with linear probing and backward-shift
// deletion, so a removal leaves no tombstone and a lookup stops at the
// first empty slot. Seqs are consecutive, so a window of calls in flight
// that spans fewer seqs than the table has slots occupies distinct slots
// and a lookup is one probe.
//
// Capacity is a power of two that doubles before the table passes 3/4
// full, and a slot is one seq and one pointer: the memory follows the peak
// number of calls in flight on the connection, never the distance between
// the oldest unanswered seq and the newest. A call left unanswered holds
// one slot while later traffic cycles through the others. Seq 0 is never
// sent, so it marks an empty slot.
type pendingTable struct {
	slots []pendingSlot
	n     int
}

type pendingSlot struct {
	seq uint64
	cl  *call
}

const minPendingSlots = 8

// put registers cl under seq, which must not be in the table.
func (t *pendingTable) put(seq uint64, cl *call) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	t.insert(seq, cl)
	t.n++
}

func (t *pendingTable) insert(seq uint64, cl *call) {
	mask := uint64(len(t.slots) - 1)
	i := seq & mask
	for t.slots[i].seq != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = pendingSlot{seq, cl}
}

func (t *pendingTable) grow() {
	old := t.slots
	t.slots = make([]pendingSlot, max(minPendingSlots, 2*len(old)))
	for _, s := range old {
		if s.seq != 0 {
			t.insert(s.seq, s.cl)
		}
	}
}

// take removes and returns the call registered under seq, or nil if there
// is none: a duplicate, stale or never-sent seq.
func (t *pendingTable) take(seq uint64) *call {
	if t.n == 0 || seq == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	i := seq & mask
	for t.slots[i].seq != seq {
		if t.slots[i].seq == 0 {
			return nil
		}
		i = (i + 1) & mask
	}
	cl := t.slots[i].cl
	// Backward shift: walk the run after the hole and move back each entry
	// whose home slot does not lie cyclically in (hole, its slot], so every
	// entry stays reachable from its home without crossing an empty slot.
	for j := (i + 1) & mask; t.slots[j].seq != 0; j = (j + 1) & mask {
		if (j-t.slots[j].seq)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = pendingSlot{}
	t.n--
	return cl
}

// each calls fn on every registered call.
func (t *pendingTable) each(fn func(*call)) {
	for _, s := range t.slots {
		if s.seq != 0 {
			fn(s.cl)
		}
	}
}
