package wire

import (
	"io"
	"sync"
)

// outbox is the write-coalescing half of a connection. Concurrent producers
// (device-goroutine completions on a listener, client goroutines on a
// router) append rendered frames into the active buffer under a mutex held
// only for the copy; a single writer goroutine swaps the active buffer with
// a spare and issues one Write for everything accumulated since its last
// flush. Under load this is group commit for syscalls: N frames queued while
// one Write was in flight leave as one Write, so the syscall rate is set by
// the kernel's pace, not the request rate. The kick channel (capacity 1)
// makes wakeups level-triggered — any number of appends while the writer is
// busy collapse into one pending kick.
//
// Memory is bounded by the transport's natural backpressure: a producer only
// appends frames for requests that were admitted, and admission is bounded
// (per-tenant occupancy on a node, in-flight calls on a client), so the
// buffers never outgrow the in-flight window.
type outbox struct {
	mu     sync.Mutex
	buf    []byte // active: producers append here
	spare  []byte // writer-owned: being written, swapped in when drained
	closed bool
	kick   chan struct{}
}

func newOutbox() *outbox {
	return &outbox{kick: make(chan struct{}, 1)}
}

// append copies one rendered frame into the active buffer and wakes the
// writer. It reports false when the outbox is closed (connection dead); the
// frame is dropped, which is correct — the peer that would have read it is
// gone. Producers must not retain p's bytes as sent: the copy is the
// handoff.
func (o *outbox) append(p []byte) bool {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return false
	}
	o.buf = append(o.buf, p...)
	o.mu.Unlock()
	select {
	case o.kick <- struct{}{}:
	default:
	}
	return true
}

// close stops the outbox: the writer flushes what is buffered, then exits.
// Safe to call more than once and concurrently with append.
func (o *outbox) close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	select {
	case o.kick <- struct{}{}:
	default:
	}
}

// run is the writer loop; the owner runs it in a dedicated goroutine. It
// returns when the outbox closes (after a final flush) or the first Write
// fails (the connection is dead; the outbox closes itself so producers stop
// buffering).
func (o *outbox) run(w io.Writer) {
	for range o.kick {
		for {
			o.mu.Lock()
			if len(o.buf) == 0 {
				closed := o.closed
				o.mu.Unlock()
				if closed {
					return
				}
				break
			}
			o.buf, o.spare = o.spare[:0], o.buf
			o.mu.Unlock()
			if _, err := w.Write(o.spare); err != nil {
				o.close()
				return
			}
		}
	}
}
