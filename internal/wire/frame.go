// Package wire is the fleet's data plane: a persistent, multiplexed,
// newline-framed transport between the router and its nodes. Each frame is
// one text line tagged with a connection-local sequence number, so many
// in-flight requests share one TCP connection and replies return in
// completion order (pipelining) rather than request order:
//
//	request:  <seq> <tenant> <R|W> <offset> <size> [key]\n
//	reply:    <seq> ok <latency_ns> <sim_ns>\n
//	        | <seq> rej <reason>\n
//
// The request tail is exactly the serve line protocol (serve.DecodeLineBytes
// parses it), so the wire format is that line plus a tag. It is the only way
// I/O enters a node or a router; HTTP carries their control planes. Sequence
// numbers start at 1 and are unique per connection for the connection's
// lifetime; seq 0 is invalid, which lets a listener distinguish "unparseable
// frame" (close the connection) from "bad request" (reply rej invalid).
// Reason tokens are serve's reject vocabulary (serve/reject.go), which
// includes "upstream", the router's token for a node that died with requests
// in flight.
//
// Both endpoints coalesce writes: frames rendered by concurrent completions
// (or concurrent client calls) land in a double-buffered outbox whose writer
// goroutine flushes everything accumulated in one Write call — group commit
// for syscalls. See outbox.go for the model and server.go/client.go for the
// two endpoints.
package wire

import (
	"fmt"
	"strconv"

	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/trace"
)

// MaxFrameBytes bounds one frame (line) on both endpoints. A listener that
// reads a longer one closes that connection: nothing in a legal frame comes
// near it, so such a peer is broken, and its replies could not be matched.
const MaxFrameBytes = 4 << 20

// readBufBytes is the initial read buffer of each endpoint's line scanner.
// A frame is tens of bytes, so a connection's buffer holds hundreds of them
// per read; the scanner doubles it on demand, up to MaxFrameBytes.
const readBufBytes = 8 << 10

// AppendRequest renders a request frame. Append-style so callers reuse one
// scratch buffer across frames; it never allocates beyond dst's growth.
func AppendRequest(dst []byte, seq uint64, req serve.Request) []byte {
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(req.Tenant), 10)
	if req.Op == trace.Write {
		dst = append(dst, ' ', 'W', ' ')
	} else {
		dst = append(dst, ' ', 'R', ' ')
	}
	dst = strconv.AppendInt(dst, req.Offset, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(req.Size), 10)
	if req.Key != 0 {
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, req.Key, 10)
	}
	return append(dst, '\n')
}

// AppendOK renders a completion reply frame.
func AppendOK(dst []byte, seq uint64, latencyNS, simNS int64) []byte {
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, " ok "...)
	dst = strconv.AppendInt(dst, latencyNS, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, simNS, 10)
	return append(dst, '\n')
}

// AppendRej renders a rejection reply frame.
func AppendRej(dst []byte, seq uint64, reason string) []byte {
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, " rej "...)
	dst = append(dst, reason...)
	return append(dst, '\n')
}

// ParseRequest parses a request frame (line, no trailing newline) in one
// pass: the seq tag, then the tail through serve.DecodeLineBytes. On a bad
// sequence tag it returns seq 0 — the connection is unrecoverable because
// replies could not be matched; on a bad request tail it returns the parsed
// seq with the error, so the listener can answer "rej invalid" in band.
func ParseRequest(line []byte) (uint64, serve.Request, error) {
	seq, i, ok := serve.ScanFrameUint(line, 0)
	if !ok || seq == 0 {
		return 0, serve.Request{}, fmt.Errorf("wire: bad request seq %q", line[:i])
	}
	req, err := serve.DecodeLineBytes(line[i:]) // the zero Request on error
	return seq, req, err
}

// Reply is one parsed reply frame. Reason aliases the input line — it is
// valid only until the caller's read buffer is reused; retain it through
// serve.ReasonString, which interns the fixed token set without allocating.
type Reply struct {
	Seq       uint64
	OK        bool
	LatencyNS int64
	SimNS     int64
	Reason    []byte
}

// ParseReply parses a reply frame (line, no trailing newline) in one pass.
// Fields past the fourth are ignored.
func ParseReply(line []byte) (Reply, error) {
	start := serve.SkipFrameSeps(line, 0)
	if start == len(line) {
		return Reply{}, replyFields(0)
	}
	seq, i, ok := serve.ScanFrameUint(line, start)
	if !ok || seq == 0 {
		return Reply{}, fmt.Errorf("wire: bad reply seq %q", line[start:i])
	}
	if start = serve.SkipFrameSeps(line, i); start == len(line) {
		return Reply{}, replyFields(1)
	}
	i = serve.FrameTokenEnd(line, start)
	verb := line[start:i]
	if start = serve.SkipFrameSeps(line, i); start == len(line) {
		return Reply{}, replyFields(2)
	}
	switch string(verb) {
	case "ok":
		lat, i, ok := serve.ScanFrameInt(line, start)
		if !ok {
			return Reply{}, fmt.Errorf("wire: bad latency %q", line[start:i])
		}
		start = serve.SkipFrameSeps(line, i)
		at, i, ok := serve.ScanFrameInt(line, start) // fails on a missing field too
		if !ok {
			return Reply{}, fmt.Errorf("wire: bad sim time %q", line[start:i])
		}
		return Reply{Seq: seq, OK: true, LatencyNS: lat, SimNS: at}, nil
	case "rej":
		return Reply{Seq: seq, Reason: line[start:serve.FrameTokenEnd(line, start)]}, nil
	}
	return Reply{}, fmt.Errorf("wire: bad reply verb %q", verb)
}

func replyFields(n int) error {
	return fmt.Errorf("wire: reply has %d fields, want 3 or 4", n)
}
