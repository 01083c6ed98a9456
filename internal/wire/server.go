package wire

import (
	"bufio"
	"io"
	"net"
	"sync"

	"ssdkeeper/internal/serve"
)

// Backend is what a wire listener serves: serve's request surface.
// *serve.Node implements it directly; the fleet router implements it too,
// which is how a router exposes the wire protocol to its own clients while
// proxying over wire to nodes.
type Backend = serve.Backend

// Server accepts persistent wire connections and feeds decoded requests
// straight into the backend. There is no per-request goroutine: the
// connection's read loop decodes a frame, reserves a pooled completion
// handle, and submits (to a node, through a serve.Batch flushed per read);
// the node's device goroutine renders the reply frame into the connection's
// coalescing outbox. Per connection the server runs exactly two goroutines
// (read loop, outbox writer) regardless of how many requests are in flight.
type Server struct {
	backend Backend

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a wire server over the backend.
func NewServer(b Backend) *Server {
	return &Server{backend: b, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Close (which returns nil) or an
// accept error (returned). Each connection is served until its peer closes
// it, sends an unparseable frame, or sends one longer than MaxFrameBytes.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops accepting, closes every live connection, and waits for the
// connection goroutines to exit. In-flight requests still complete inside
// the backend; their reply frames are dropped by the closed outboxes.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	out := newOutbox()
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		out.run(conn)
	}()

	var scratch []byte // rej frames for synchronous decode failures
	var rd io.Reader = conn
	submit, flush := s.backend.SubmitTo, func() {}
	if nb, ok := s.backend.(interface{ NewBatch() *serve.Batch }); ok {
		// The Scanner reads only once no complete frame is left, so
		// flushing before each Read sends a read's requests together.
		b := nb.NewBatch()
		rd, submit, flush = flushReader{conn, b}, b.SubmitTo, b.Flush
	}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, readBufBytes), MaxFrameBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		seq, req, err := ParseRequest(line)
		if err != nil {
			if seq == 0 {
				break // untagged garbage: replies can't be matched, hang up
			}
			scratch = AppendRej(scratch[:0], seq, serve.RejectReason(err))
			out.append(scratch)
			continue
		}
		d := donePool.Get().(*Done)
		d.seq, d.out = seq, out
		if err := submit(req, d); err != nil {
			// Synchronous rejection: the backend never calls Complete.
			d.Complete(serve.Response{}, err)
		}
	}
	flush()
	out.close()
	conn.Close()
	writers.Wait()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// flushReader flushes the connection's batch before each socket read.
type flushReader struct {
	conn  net.Conn
	batch *serve.Batch
}

func (f flushReader) Read(p []byte) (int, error) {
	f.batch.Flush()
	return f.conn.Read(p)
}

// donePool recycles completion handles so the steady-state request path
// allocates nothing: one Done is reserved at decode, rides the node's
// mailbox as the request's serve.Completion, renders the reply frame into
// its own scratch buffer, and returns to the pool.
var donePool = sync.Pool{New: func() any { return new(Done) }}

// Done is the wire server's serve.Completion: it renders the outcome as a
// reply frame into the connection's outbox. Complete runs on the node's
// device goroutine and does not block (the outbox append is a bounded
// copy under a short-held lock).
type Done struct {
	seq     uint64
	out     *outbox
	scratch []byte
}

// Complete implements serve.Completion.
func (d *Done) Complete(resp serve.Response, err error) {
	if err != nil {
		d.scratch = AppendRej(d.scratch[:0], d.seq, serve.RejectReason(err))
	} else {
		d.scratch = AppendOK(d.scratch[:0], d.seq, int64(resp.Latency), int64(resp.At))
	}
	out := d.out
	d.out = nil
	out.append(d.scratch)
	donePool.Put(d)
}
