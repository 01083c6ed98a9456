package sim

// ring is a growable FIFO over a power-of-two circular buffer: the queue
// shape of everything in this package that is consumed in the order it was
// produced (engine lanes, per-priority resource waiters). Popped and reset
// slots are zeroed so whatever the elements reference is released at once,
// while the buffer keeps its capacity for the next run.
type ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int // index of the oldest element
	n    int // elements queued
}

// alloc appends a zero element, doubling the buffer when it is full, and
// returns it for the caller to fill in place.
func (r *ring[T]) alloc() *T {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.n++
	return r.at(r.n - 1)
}

func (r *ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = *r.at(i)
	}
	r.buf, r.head = buf, 0
}

// at returns the i-th oldest element, 0 <= i < n.
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// drop removes the oldest element — at(0), which the caller has read —
// zeroing its slot; the ring must not be empty.
func (r *ring[T]) drop() {
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// reset empties the ring, zeroing the occupied slots.
func (r *ring[T]) reset() {
	var zero T
	for i := 0; i < r.n; i++ {
		*r.at(i) = zero
	}
	r.head, r.n = 0, 0
}
