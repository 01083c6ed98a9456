package wire

import (
	"bufio"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/trace"
)

// stepClock moves one second forward on every read, so any clock read a
// node makes after admitting a request passes the request's completion.
type stepClock struct{ reads atomic.Int64 }

func (c *stepClock) Now() time.Time {
	return time.Unix(1000, 0).Add(time.Duration(c.reads.Add(1)) * time.Second)
}

// TestWireBatchAnswersEachRead drives a started node the way a closed-loop
// client does: one write carries a window of frames, and the next write
// waits for every reply. The node admits a socket read's frames as one
// batch, so the read loop must hand the batch to the node before it blocks
// in the next Read, and the node must advance its engine to the wall clock
// once it has drained its mailbox: the batch's requests share one stamp,
// and nothing else moves the engine while the client waits. Without the
// first the client stalls until the deadline; without the second each
// window waits for the pacer's timer (about 1 ms on Linux), and the rounds
// overrun the deadline. A frame split across two reads is answered once.
func TestWireBatchAnswersEachRead(t *testing.T) {
	node, err := serve.NewNode(serve.Config{
		Device: nand.EvalConfig(), Now: new(stepClock).Now,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	defer node.Drain()
	_, addr := startWire(t, node)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A 1000-round run takes tens of milliseconds; one timer wait per
	// round alone takes about a second.
	const rounds, window = 1000, 4
	if err := conn.SetDeadline(time.Now().Add(500 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(conn)
	seq := uint64(0)
	// expect reads n replies and checks each answers one of the last n seqs
	// with a completion.
	expect := func(n int) {
		t.Helper()
		seen := make(map[uint64]bool, n)
		for len(seen) < n {
			line, err := rd.ReadSlice('\n')
			if err != nil {
				t.Fatalf("after %d of %d replies to seqs %d..%d: %v", len(seen), n, seq-uint64(n)+1, seq, err)
			}
			rep, err := ParseReply(line[:len(line)-1])
			if err != nil || !rep.OK || rep.Seq <= seq-uint64(n) || rep.Seq > seq || seen[rep.Seq] {
				t.Fatalf("reply %q (%+v, %v) to the window ending at seq %d", line, rep, err, seq)
			}
			seen[rep.Seq] = true
		}
	}
	var buf []byte
	for r := 0; r < rounds; r++ {
		buf = buf[:0]
		for i := 0; i < window; i++ {
			seq++
			buf = AppendRequest(buf, seq, serve.Request{
				Tenant: i % 4, Op: trace.Op(i % 2), Offset: int64(seq%512) * 16384, Size: 16384,
			})
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		expect(window)
	}

	// One frame in two writes, far enough apart that the server reads the
	// first half on its own; then one more frame, whose reply must be the
	// next one on the connection.
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	seq++
	frame := AppendRequest(nil, seq, serve.Request{Tenant: 1, Op: trace.Read, Size: 16384})
	half := len(frame) / 2
	if _, err := conn.Write(frame[:half]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := conn.Write(frame[half:]); err != nil {
		t.Fatal(err)
	}
	expect(1)
	seq++
	if _, err := conn.Write(AppendRequest(nil, seq, serve.Request{Tenant: 2, Op: trace.Read, Size: 16384})); err != nil {
		t.Fatal(err)
	}
	expect(1)
}
