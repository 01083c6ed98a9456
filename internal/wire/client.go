package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ssdkeeper/internal/serve"
)

// ErrClientClosed reports a call issued after Close.
var ErrClientClosed = errors.New("wire: client closed")

// Observer receives a call's outcome, exactly once, from the connection's
// read goroutine — implementations must not block. It is the client's one
// way to deliver a reply: a caller that wants to block waits on whatever its
// observer signals, and a caller that wants a deadline keeps its own. reason
// is "" for success and an interned rejection token otherwise; err is
// non-nil only for transport failure (connection died before a reply), in
// which case the outcome is unknown. tag is the caller's correlation value,
// untouched.
type Observer interface {
	Done(tag uint64, latencyNS, simNS int64, reason string, err error)
}

// Client multiplexes calls onto a small pool of persistent connections to
// one wire listener. Connections dial lazily and redial on the next call
// after a failure; every in-flight call on a dead connection fails with the
// transport error. Calls pipeline: any number may be in flight per
// connection, each tagged with a connection-local seq and matched to its
// reply by the read goroutine.
type Client struct {
	addr  string
	conns []*clientConn
	next  atomic.Uint64
}

// NewClient builds a client for the listener at addr with the given
// connection-pool size (minimum 1). No connection is made until the first
// call.
func NewClient(addr string, conns int) *Client {
	if conns < 1 {
		conns = 1
	}
	c := &Client{addr: addr}
	for i := 0; i < conns; i++ {
		c.conns = append(c.conns, &clientConn{addr: addr})
	}
	return c
}

// Addr returns the listener address the client dials.
func (c *Client) Addr() string { return c.addr }

// Start issues one call: obs.Done fires from the connection's read goroutine
// when the reply (or the connection's death) arrives. A synchronous error
// means the call was never sent and obs will not fire.
func (c *Client) Start(req serve.Request, tag uint64, obs Observer) error {
	cl := getCall()
	cl.tag, cl.obs = tag, obs
	if err := c.pick().send(req, cl); err != nil {
		putCall(cl)
		return err
	}
	return nil
}

// Close tears down every connection; in-flight calls fail with
// ErrClientClosed and later calls are rejected synchronously.
func (c *Client) Close() {
	for _, cc := range c.conns {
		cc.shutdown()
	}
}

func (c *Client) pick() *clientConn {
	return c.conns[c.next.Add(1)%uint64(len(c.conns))]
}

// clientConn is one persistent connection: a lazily-dialed net.Conn, the
// coalescing outbox its requests leave through, and the pending table its
// read goroutine resolves replies against. The mutex guards conn identity,
// seq, and the table; it is never held across network I/O (send holds it
// across the outbox append, which is a bounded memcpy).
type clientConn struct {
	addr string

	mu      sync.Mutex
	conn    net.Conn
	out     *outbox
	pending pendingTable
	seq     uint64
	closed  bool
}

func (cc *clientConn) send(req serve.Request, cl *call) error {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return ErrClientClosed
	}
	if cc.conn == nil {
		if err := cc.dialLocked(); err != nil {
			cc.mu.Unlock()
			return fmt.Errorf("wire: dial %s: %w", cc.addr, err)
		}
	}
	cc.seq++
	cl.seq = cc.seq
	cc.pending.put(cl.seq, cl)
	// Render and enqueue while still holding cc.mu: the moment the call is
	// registered in pending, a connection failure may sweep it — delivering
	// its outcome and returning it to the pool — so touching cl after an
	// unlock would race with that sweep. The append is a bounded memcpy into
	// the outbox, not I/O; fail() takes cc.mu before it closes the outbox,
	// so the sweep cannot run until we are done with the call. A false
	// return (the outbox writer saw the connection die and self-closed)
	// drops the frame; the read goroutine's fail sweep then delivers this
	// call's transport error.
	cl.scratch = AppendRequest(cl.scratch[:0], cl.seq, req)
	cc.out.append(cl.scratch)
	cc.mu.Unlock()
	return nil
}

// dialLocked connects and starts the connection's writer and reader
// goroutines. Called with cc.mu held; the dial itself briefly serializes
// other senders on this connection, which only happens on first use or
// after a failure.
func (cc *clientConn) dialLocked() error {
	conn, err := net.DialTimeout("tcp", cc.addr, 5*time.Second)
	if err != nil {
		return err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // coalescing happens in the outbox, not the kernel
	}
	cc.conn = conn
	cc.out = newOutbox()
	go cc.out.run(conn)
	go cc.read(conn)
	return nil
}

// read is the demux loop: one goroutine per live connection matches reply
// frames to pending calls by seq and delivers outcomes.
func (cc *clientConn) read(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, readBufBytes), MaxFrameBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rep, err := ParseReply(line)
		if err != nil {
			cc.fail(conn, err)
			return
		}
		cc.mu.Lock()
		cl := cc.pending.take(rep.Seq)
		cc.mu.Unlock()
		if cl == nil {
			continue // a seq this connection never sent, or already answered
		}
		cl.latNS, cl.simNS = rep.LatencyNS, rep.SimNS
		if !rep.OK {
			cl.reason = serve.ReasonString(rep.Reason)
		}
		cl.deliver()
	}
	err := sc.Err()
	if err == nil {
		err = io.EOF
	}
	cc.fail(conn, err)
}

// fail tears down one dead connection (if it is still the live one) and
// fails everything pending on it. The next send redials.
func (cc *clientConn) fail(conn net.Conn, err error) {
	cc.mu.Lock()
	if cc.conn != conn {
		cc.mu.Unlock()
		return
	}
	cc.conn = nil
	cc.out.close()
	cc.out = nil
	p := cc.pending
	cc.pending = pendingTable{}
	cc.mu.Unlock()
	conn.Close()
	p.each(func(cl *call) {
		cl.err = fmt.Errorf("wire: %s: %w", cc.addr, err)
		cl.deliver()
	})
}

func (cc *clientConn) shutdown() {
	cc.mu.Lock()
	cc.closed = true
	conn := cc.conn
	cc.mu.Unlock()
	if conn != nil {
		cc.fail(conn, ErrClientClosed)
	}
}

// call is one in-flight request. Pooled: it returns to the pool right after
// its observer has run.
type call struct {
	seq     uint64
	tag     uint64
	obs     Observer
	scratch []byte
	latNS   int64
	simNS   int64
	reason  string
	err     error
}

// deliver hands the outcome to the observer and recycles the call.
func (cl *call) deliver() {
	cl.obs.Done(cl.tag, cl.latNS, cl.simNS, cl.reason, cl.err)
	putCall(cl)
}

var callPool = sync.Pool{New: func() any { return new(call) }}

func getCall() *call {
	cl := callPool.Get().(*call)
	cl.latNS, cl.simNS = 0, 0
	cl.reason, cl.err = "", nil
	return cl
}

// putCall drops the observer so an idle pool pins no caller.
func putCall(cl *call) {
	cl.obs = nil
	callPool.Put(cl)
}
